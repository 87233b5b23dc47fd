package shortest

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/hypergraph"
)

// TestRadixQueuePopsInKeyOrder drives the queue the way Dijkstra does —
// every push and decrease at or above the last popped key — with keys
// drawn from a palette that includes 0, the metric's largest length
// exp(60)−1 and many equal values. Pops must never decrease, every item
// must come out exactly once with its latest key, and a reset queue starts
// over at 0.
func TestRadixQueuePopsInKeyOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	big := math.Exp(60) - 1
	steps := []float64{0, 0, 0, 1e-300, 0.25, 0.25, 1, 3.5, 1e-4, big}
	const items = 400
	q := newRadixQueue(items)
	for trial := 0; trial < 50; trial++ {
		q.reset()
		queued := map[int32]float64{}
		popped := map[int32]bool{}
		q.push(0, 0)
		queued[0] = 0
		last := 0.0
		for q.len() > 0 {
			item, key := q.pop()
			want, ok := queued[item]
			if !ok || key != want || key < last {
				t.Fatalf("trial %d: popped %d with key %v (queued %v, %v) after %v", trial, item, key, want, ok, last)
			}
			delete(queued, item)
			popped[item] = true
			last = key
			for k := rng.Intn(6); k > 0; k-- {
				u := int32(rng.Intn(items))
				nk := key + steps[rng.Intn(len(steps))]
				if popped[u] {
					continue
				}
				if old, ok := queued[u]; !ok {
					q.push(u, nk)
				} else if nk < old {
					q.decrease(u, nk)
				} else {
					continue
				}
				queued[u] = nk
			}
		}
		if len(queued) != 0 {
			t.Fatalf("trial %d: %d items never popped", trial, len(queued))
		}
	}
	// Equal keys, including the largest one, all come out.
	q.reset()
	for i := int32(0); i < 100; i++ {
		q.push(i, big)
	}
	for i := 0; i < 100; i++ {
		if _, key := q.pop(); key != big {
			t.Fatalf("equal-key pop %d returned %v", i, key)
		}
	}
	if q.len() != 0 {
		t.Fatalf("%d items left after popping every equal key", q.len())
	}
}

// TestRadixQueueDecreaseLeavesStaleBound covers a bucket's lower bound
// across decreases: when the smallest key leaves the bucket the bound goes
// stale below every key left, and when a key drops within the bucket
// below the bound, the bound must follow. Pops must return the true
// minimum either way.
func TestRadixQueueDecreaseLeavesStaleBound(t *testing.T) {
	q := newRadixQueue(8)
	q.reset()
	q.push(0, 0)
	if item, key := q.pop(); item != 0 || key != 0 {
		t.Fatalf("first pop %d at %v", item, key)
	}
	// 4 to 7.5 share a bucket relative to 0. 6 leaves it for 1, so the
	// bound 6 goes stale; 7.5 drops to 5.5 inside it, below the bound; 7
	// drops to 6.5, above the bound.
	q.push(1, 6)
	q.push(2, 7)
	q.push(3, 7.5)
	q.decrease(1, 1)
	q.decrease(3, 5.5)
	q.decrease(2, 6.5)
	var got []float64
	for q.len() > 0 {
		_, key := q.pop()
		got = append(got, key)
	}
	want := []float64{1, 5.5, 6.5}
	if len(got) != len(want) || !sort.Float64sAreSorted(got) {
		t.Fatalf("pops %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pops %v, want %v", got, want)
		}
	}
}

// TestGrowUnorderedMatchesGrowLengths checks GrowUnordered against the
// exact grower on heavily tied lengths: the same number of settled nodes,
// non-decreasing distances, and per distance the same set of nodes, for
// growths that run to exhaustion and growths stopped after a prefix of
// whole tie groups.
func TestGrowUnorderedMatchesGrowLengths(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	palette := []float64{0, 0.25, 0.5, 1, 1.5, math.Exp(60) - 1}
	for trial := 0; trial < 60; trial++ {
		n := 10 + rng.Intn(120)
		h := tiedHypergraph(rng, n, 1+rng.Intn(3), []float64{0.5, 2, 12}[trial%3])
		lengths := make([]float64, h.NumNets())
		for e := range lengths {
			lengths[e] = palette[rng.Intn(len(palette))]
		}
		s, ref := NewHyperSPT(h), NewHyperSPT(h)
		for g := 0; g < 30; g++ {
			root := hypergraph.NodeID(rng.Intn(n))
			var want []Visit
			ref.GrowLengths(root, lengths, func(v Visit) bool {
				want = append(want, v)
				return true
			})
			// Stop after the group holding the cut-th visit, or never.
			stopAt := math.Inf(1)
			if g%2 == 1 {
				stopAt = want[rng.Intn(len(want))].Dist
			}
			byDist := map[float64]map[hypergraph.NodeID]bool{}
			for _, v := range want {
				if v.Dist > stopAt {
					break
				}
				if byDist[v.Dist] == nil {
					byDist[v.Dist] = map[hypergraph.NodeID]bool{}
				}
				byDist[v.Dist][v.Node] = true
			}
			last, count := 0.0, 0
			settled := s.GrowUnordered(root, lengths, func(v hypergraph.NodeID, dist float64) bool {
				if dist > stopAt {
					return false
				}
				if dist < last || !byDist[dist][v] {
					t.Fatalf("trial %d growth %d: node %d at %v after %v is not in the exact growth's group", trial, g, v, dist, last)
				}
				delete(byDist[dist], v)
				last = dist
				count++
				if s.Dist(v) != dist {
					t.Fatalf("trial %d growth %d: Dist(%d) = %v, visited at %v", trial, g, v, s.Dist(v), dist)
				}
				return true
			})
			for d, rest := range byDist {
				if len(rest) != 0 {
					t.Fatalf("trial %d growth %d: %d nodes at distance %v never settled", trial, g, len(rest), d)
				}
			}
			if g%2 == 0 && (settled != len(want) || count != len(want)) {
				t.Fatalf("trial %d growth %d: settled %d, exact growth %d", trial, g, settled, len(want))
			}
		}
	}
}
