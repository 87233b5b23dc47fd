package shortest

import (
	"math"
	"math/bits"
)

// radixQueue is a monotone priority queue (a radix heap) over non-negative
// float64 keys, for Dijkstra growths that do not need a fixed order among
// tied keys. Non-negative IEEE-754 doubles order exactly like their bit
// patterns read as unsigned integers, so the queue works on the bits: an
// item lives in bucket Len64(key XOR last), where last is the floor the
// queue last rose to. Bucket 0 holds the keys equal to last; every key in
// bucket b > 0 agrees with last above bit b−1 and exceeds it, so the lowest
// non-empty bucket holds the minimum. Popping from an empty bucket 0 raises
// last to a lower bound of the lowest non-empty bucket and moves that
// bucket's items into lower buckets; items in higher buckets keep their
// bucket, since last changed only below their highest differing bit. An
// item moves at most 63 times, in practice two or three.
//
// Keys pushed must be at least the last popped key, which Dijkstra with
// non-negative lengths guarantees. The queue is indexed: items are dense
// IDs below the capacity, each queued at most once, and decrease moves an
// item to the bucket of its smaller key. Buckets are doubly linked lists
// threaded through one per-item record array, so the queue allocates only
// in newRadixQueue.
type radixQueue struct {
	items []radixItem
	head  [64]int32  // first item of each bucket; -1 when empty
	low   [64]uint64 // a lower bound on a non-empty bucket's keys
	mask  uint64     // bit b set iff bucket b is non-empty
	last  uint64     // bits of the floor: no queued key is below it
	n     int        // queued items
}

type radixItem struct {
	key        uint64
	prev, next int32 // bucket neighbours; -1 ends the list
}

// newRadixQueue returns an empty queue for items 0..capacity-1.
func newRadixQueue(capacity int) *radixQueue {
	q := &radixQueue{items: make([]radixItem, capacity)}
	q.reset()
	return q
}

// reset empties the queue and lowers its floor back to zero.
func (q *radixQueue) reset() {
	for b := range q.head {
		q.head[b] = -1
	}
	q.mask, q.last, q.n = 0, 0, 0
}

// len reports the number of queued items.
func (q *radixQueue) len() int { return q.n }

func (q *radixQueue) bucket(k uint64) int { return bits.Len64(k^q.last) & 63 }

// link puts item, whose key is k, at the front of bucket b.
func (q *radixQueue) link(item int32, b int, k uint64) {
	it := &q.items[item]
	it.prev, it.next = -1, q.head[b]
	if it.next >= 0 {
		q.items[it.next].prev = item
		q.low[b] = min(q.low[b], k)
	} else {
		q.low[b] = k
	}
	q.head[b] = item
	q.mask |= 1 << b
}

// push queues item, which must not be queued, with the given key, which
// must be a non-negative number no smaller than the last popped key.
func (q *radixQueue) push(item int32, key float64) {
	k := math.Float64bits(key)
	q.items[item].key = k
	q.link(item, q.bucket(k), k)
	q.n++
}

// decrease lowers the key of a queued item to key, which must be no
// smaller than the last popped key.
func (q *radixQueue) decrease(item int32, key float64) {
	k := math.Float64bits(key)
	it := &q.items[item]
	from, to := q.bucket(it.key), q.bucket(k)
	it.key = k
	if from == to {
		q.low[to] = min(q.low[to], k)
		return
	}
	if it.prev >= 0 {
		q.items[it.prev].next = it.next
	} else if q.head[from] = it.next; it.next < 0 {
		q.mask &^= 1 << from
	}
	if it.next >= 0 {
		q.items[it.next].prev = it.prev
	}
	q.link(item, to, k)
}

// pop removes and returns an item with the minimum key. Items with equal
// keys come out in no particular order. It must not be called on an empty
// queue.
//
// A bucket's low bound is the smallest key linked into it since it was
// last empty. An item that leaves by decrease can leave the bound below
// the bucket's true minimum, but never below a key of a lower bucket
// (those keys have bit b−1 clear where the bucket's have it set), so
// raising last to the bound keeps every key at or above last and moves the
// bucket's items strictly lower. If no key equals the bound, bucket 0
// stays empty and the next lowest bucket is drained in turn.
func (q *radixQueue) pop() (item int32, key float64) {
	//htpvet:allow ctxpoll -- each iteration drains the lowest non-empty bucket into strictly lower ones, so a pop runs it at most 64 times; the growth loop calling pop is bounded the same way and its caller polls ctx (see GrowUnordered)
	for q.mask&1 == 0 {
		b := bits.TrailingZeros64(q.mask)
		first := q.head[b]
		q.last = q.low[b]
		q.head[b] = -1
		q.mask &^= 1 << b
		for i := first; i >= 0; {
			it := &q.items[i]
			next := it.next
			q.link(i, q.bucket(it.key), it.key)
			i = next
		}
	}
	item = q.head[0]
	it := &q.items[item]
	if q.head[0] = it.next; it.next >= 0 {
		q.items[it.next].prev = -1
	} else {
		q.mask &^= 1
	}
	q.n--
	return item, math.Float64frombits(it.key)
}
