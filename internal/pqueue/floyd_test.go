package pqueue

import (
	"math/rand"
	"testing"
)

// refHeap sinks entries top-down, the classic formulation: the
// differential reference whose layout siftDown's bottom-up form must
// reproduce exactly.
type refHeap struct {
	entries []entry
	pos     []int32
}

func newRefHeap(capacity int) *refHeap {
	h := &refHeap{pos: make([]int32, capacity)}
	for i := range h.pos {
		h.pos[i] = -1
	}
	return h
}

func (h *refHeap) push(item int, key float64) {
	h.entries = append(h.entries, entry{key, int32(item)})
	h.pos[item] = int32(len(h.entries) - 1)
	h.siftUp(len(h.entries) - 1)
}

func (h *refHeap) pop() (int, float64) {
	n := len(h.entries)
	top := h.entries[0]
	h.pos[top.item] = -1
	last := h.entries[n-1]
	h.entries = h.entries[:n-1]
	if n > 1 {
		h.entries[0] = last
		h.pos[last.item] = 0
		h.siftDown(0)
	}
	return int(top.item), top.key
}

func (h *refHeap) decreaseKey(item int, key float64) {
	i := int(h.pos[item])
	h.entries[i].key = key
	h.siftUp(i)
}

func (h *refHeap) remove(item int) {
	i := int(h.pos[item])
	n := len(h.entries)
	h.pos[item] = -1
	last := h.entries[n-1]
	h.entries = h.entries[:n-1]
	if i < n-1 {
		h.entries[i] = last
		h.pos[last.item] = int32(i)
		h.siftDown(i)
		h.siftUp(i)
	}
}

func (h *refHeap) siftUp(i int) {
	es := h.entries
	moving := es[i]
	for i > 0 {
		parent := (i - 1) / 2
		if moving.key >= es[parent].key {
			break
		}
		es[i] = es[parent]
		h.pos[es[i].item] = int32(i)
		i = parent
	}
	es[i] = moving
	h.pos[moving.item] = int32(i)
}

func (h *refHeap) siftDown(i int) {
	es := h.entries
	n := len(es)
	moving := es[i]
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && es[r].key < es[c].key {
			c = r
		}
		if es[c].key >= moving.key {
			break
		}
		es[i] = es[c]
		h.pos[es[i].item] = int32(i)
		i = c
	}
	es[i] = moving
	h.pos[moving.item] = int32(i)
}

// TestFloydSiftMatchesClassic runs random Push/Pop/DecreaseKey/Remove
// sequences with heavily tied keys against the classic sift and requires
// identical pops and an identical entry layout (items, keys and positions)
// after every operation.
func TestFloydSiftMatchesClassic(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 200; trial++ {
		capacity := 1 + rng.Intn(300)
		levels := 1 + rng.Intn(6) // few distinct keys: ties everywhere
		key := func() float64 { return float64(rng.Intn(levels)) * 0.5 }
		h, ref := New(capacity), newRefHeap(capacity)
		for step := 0; step < 2000; step++ {
			item := rng.Intn(capacity)
			switch op := rng.Intn(10); {
			case op < 4:
				if !h.Contains(item) {
					k := key()
					h.Push(item, k)
					ref.push(item, k)
				}
			case op < 7:
				if h.Len() > 0 {
					gi, gk := h.Pop()
					ri, rk := ref.pop()
					if gi != ri || gk != rk {
						t.Fatalf("trial %d step %d: Pop (%d,%g), classic (%d,%g)", trial, step, gi, gk, ri, rk)
					}
				}
			case op < 9:
				if h.Contains(item) {
					k := h.Key(item) - float64(rng.Intn(2))*0.5
					h.DecreaseKey(item, k)
					ref.decreaseKey(item, k)
				}
			default:
				if h.Contains(item) {
					h.Remove(item)
					ref.remove(item)
				}
			}
			if len(h.entries) != len(ref.entries) {
				t.Fatalf("trial %d step %d: %d entries, classic %d", trial, step, len(h.entries), len(ref.entries))
			}
			for i := range h.entries {
				if h.entries[i] != ref.entries[i] {
					t.Fatalf("trial %d step %d: slot %d holds %+v, classic %+v", trial, step, i, h.entries[i], ref.entries[i])
				}
			}
			for it := range h.pos {
				if h.pos[it] != ref.pos[it] {
					t.Fatalf("trial %d step %d: item %d at %d, classic %d", trial, step, it, h.pos[it], ref.pos[it])
				}
			}
		}
	}
}
