package shortest

import (
	"repro/internal/hypergraph"
	"repro/internal/pqueue"
)

// HyperSPT grows shortest-path trees over a hypergraph under a per-net
// length function: traversing from any pin of net e to any other pin costs
// length(e). This is the hypergraph extension of the paper's S(v,k) trees —
// nodes are settled in increasing distance from the root, and the tree
// records, for every settled node, the net that connected it (its "shortest
// connecting edge").
//
// The struct owns reusable workspaces so that Algorithm 2, which grows trees
// from every node over many rounds, allocates nothing per growth after the
// first. Construction also flattens the hypergraph's incidence and pin lists
// into CSR arrays and packs the per-node search state into one record, so
// the relaxation loop — FLOW's hottest code — walks contiguous memory
// instead of chasing per-node slice headers across four parallel arrays.
type HyperSPT struct {
	h     *hypergraph.Hypergraph
	nodes []sptNode

	// CSR copies of h's incidence (node -> nets) and pin (net -> nodes)
	// lists; indexes are int32 since netlists are well under 2^31 objects.
	incStart []int32
	incList  []int32
	pinStart []int32
	pinList  []int32

	// compSize[v] is the node count of v's connected component: once a
	// growth has touched that many nodes, no pin scan can push a node.
	compSize []int32

	netGen []uint32
	gen    uint32
	heap   *pqueue.IndexedMinHeap
	touch  []int32 // nodes whose state must be reset before the next growth
}

// sptNode is the per-node search state, packed so one settle or relaxation
// touches a single cache line instead of four arrays.
type sptNode struct {
	dist   float64
	via    int32 // net that settled the node; -1 for the root
	parent int32 // pin of via-net already in the tree; -1 for the root
	state  uint8 // 0 untouched, 1 in heap, 2 settled
}

// Visit describes one settled node during SPT growth.
type Visit struct {
	Node   hypergraph.NodeID
	Dist   float64
	Via    hypergraph.NetID  // connecting net, -1 for the root
	Parent hypergraph.NodeID // tree predecessor, -1 for the root
}

// NewHyperSPT returns a grower bound to h.
func NewHyperSPT(h *hypergraph.Hypergraph) *HyperSPT {
	n := h.NumNodes()
	m := h.NumNets()
	s := &HyperSPT{
		h:        h,
		nodes:    make([]sptNode, n),
		incStart: make([]int32, n+1),
		pinStart: make([]int32, m+1),
		netGen:   make([]uint32, m),
		heap:     pqueue.New(n),
	}
	inc := 0
	for v := 0; v < n; v++ {
		s.incStart[v] = int32(inc)
		inc += len(h.Incident(hypergraph.NodeID(v)))
	}
	s.incStart[n] = int32(inc)
	s.incList = make([]int32, 0, inc)
	for v := 0; v < n; v++ {
		for _, e := range h.Incident(hypergraph.NodeID(v)) {
			s.incList = append(s.incList, int32(e))
		}
	}
	pins := 0
	for e := 0; e < m; e++ {
		s.pinStart[e] = int32(pins)
		pins += len(h.Pins(hypergraph.NetID(e)))
	}
	s.pinStart[m] = int32(pins)
	s.pinList = make([]int32, 0, pins)
	for e := 0; e < m; e++ {
		for _, u := range h.Pins(hypergraph.NetID(e)) {
			s.pinList = append(s.pinList, int32(u))
		}
	}
	s.compSize = s.componentSizes()
	return s
}

// componentSizes returns, per node, the size of its connected component,
// found by breadth-first search over the CSR arrays. It borrows the
// grower's workspaces: netGen marks scanned nets (cleared again before the
// first growth), and the queue, which ends up holding every node once,
// becomes the touch list's backing array.
func (s *HyperSPT) componentSizes() []int32 {
	n := len(s.nodes)
	size := make([]int32, n) // non-zero once the node is queued
	queue := make([]int32, 0, n)
	for r := 0; r < n; r++ {
		if size[r] != 0 {
			continue
		}
		start := len(queue)
		queue = append(queue, int32(r))
		size[r] = -1
		for head := start; head < len(queue); head++ {
			v := queue[head]
			for _, e := range s.incList[s.incStart[v]:s.incStart[v+1]] {
				if s.netGen[e] != 0 {
					continue
				}
				s.netGen[e] = 1
				for _, u := range s.pinList[s.pinStart[e]:s.pinStart[e+1]] {
					if size[u] == 0 {
						size[u] = -1
						queue = append(queue, u)
					}
				}
			}
		}
		for _, v := range queue[start:] {
			size[v] = int32(len(queue) - start)
		}
	}
	clear(s.netGen)
	s.touch = queue[:0]
	return size
}

// Grow runs Dijkstra from root with net lengths given by length, invoking
// visit for every settled node in increasing distance order (the root first,
// at distance 0). Growth stops when visit returns false, when all reachable
// nodes are settled, or never reaches unreachable components. It returns the
// number of settled nodes.
//
// length must return non-negative values and be stable for the duration of
// the call.
func (s *HyperSPT) Grow(root hypergraph.NodeID, length func(hypergraph.NetID) float64, visit func(Visit) bool) int {
	return s.grow(root, nil, length, visit)
}

// GrowLengths is Grow with the per-net lengths supplied as a slice indexed
// by NetID instead of a function. It produces exactly the same tree and
// visit sequence as Grow with length = func(e) { return lengths[e] }, but
// the relaxation loop — the hottest path of Algorithm 2, where a length is
// read for every scanned net — indexes the slice directly instead of paying
// an indirect call per net.
//
// lengths must have one non-negative entry per net and stay unmodified for
// the duration of the call.
func (s *HyperSPT) GrowLengths(root hypergraph.NodeID, lengths []float64, visit func(Visit) bool) int {
	return s.grow(root, lengths, nil, visit)
}

// grow is the shared Dijkstra core: lengths (fast path) takes precedence
// over length (closure path) when non-nil.
func (s *HyperSPT) grow(root hypergraph.NodeID, lengths []float64, length func(hypergraph.NetID) float64, visit func(Visit) bool) int {
	s.reset()
	s.gen++
	nodes := s.nodes
	netGen, gen, heap := s.netGen, s.gen, s.heap
	incStart, incList := s.incStart, s.incList
	pinStart, pinList := s.pinStart, s.pinList
	nodes[root] = sptNode{dist: 0, via: -1, parent: -1, state: 1}
	s.touch = append(s.touch, int32(root))
	heap.Push(int(root), 0)
	// comp is the touch count at which every node of root's component has
	// been reached; ub is the largest key pushed so far (see the skip below).
	comp := int(s.compSize[root])
	ub := 0.0

	settled := 0
	//htpvet:allow ctxpoll -- each iteration settles a node or discards a stale heap entry, so the loop is bounded by reached nodes; cancellation is the callers' visit callback returning false (inject polls ctx there with a masked counter)
	for heap.Len() > 0 {
		vi, dv := heap.Pop()
		nv := &nodes[vi]
		if nv.state == 2 {
			continue
		}
		nv.state = 2
		settled++
		keep := visit(Visit{
			Node:   hypergraph.NodeID(vi),
			Dist:   dv,
			Via:    hypergraph.NetID(nv.via),
			Parent: hypergraph.NodeID(nv.parent),
		})
		if !keep {
			break
		}
		// Once the whole component is touched no pin can be pushed, and
		// since keys only fall every queued key is <= ub: a net scan
		// offering nd >= ub cannot lower one, so it is skipped. full is
		// sampled once per settled node; a component that fills up midway
		// merely skips from the next node on.
		full := len(s.touch) == comp
		for _, e := range incList[incStart[vi]:incStart[vi+1]] {
			// The first settled pin of a net offers the minimal distance
			// through it (later-settled pins only have larger distances),
			// so each net needs scanning exactly once.
			if netGen[e] == gen {
				continue
			}
			netGen[e] = gen
			var le float64
			if lengths != nil {
				le = lengths[e]
			} else {
				le = length(hypergraph.NetID(e))
			}
			nd := dv + le
			if full && nd >= ub {
				continue
			}
			for _, u := range pinList[pinStart[e]:pinStart[e+1]] {
				nu := &nodes[u]
				if nu.state == 2 {
					continue
				}
				if nu.state == 0 {
					*nu = sptNode{dist: nd, via: e, parent: int32(vi), state: 1}
					s.touch = append(s.touch, u)
					heap.Push(int(u), nd)
					if nd > ub {
						ub = nd
					}
				} else if nd < nu.dist {
					nu.dist = nd
					nu.via = e
					nu.parent = int32(vi)
					heap.DecreaseKey(int(u), nd)
				}
			}
		}
	}
	return settled
}

// Dist returns the distance of v recorded by the last Grow; meaningful only
// for nodes that were settled or reached.
func (s *HyperSPT) Dist(v hypergraph.NodeID) float64 { return s.nodes[v].dist }

func (s *HyperSPT) reset() {
	for _, v := range s.touch {
		s.nodes[v].state = 0
	}
	s.touch = s.touch[:0]
	s.heap.Reset()
	if s.gen == ^uint32(0) {
		// Generation counter wrapped: clear net marks the slow way.
		for i := range s.netGen {
			s.netGen[i] = 0
		}
		s.gen = 0
	}
}

// HyperDistances computes full single-source distances on the hypergraph —
// a convenience wrapper over Grow that settles everything reachable.
func HyperDistances(h *hypergraph.Hypergraph, root hypergraph.NodeID, length func(hypergraph.NetID) float64) []float64 {
	dist := make([]float64, h.NumNodes())
	for i := range dist {
		dist[i] = Inf
	}
	s := NewHyperSPT(h)
	s.Grow(root, length, func(v Visit) bool {
		dist[v.Node] = v.Dist
		return true
	})
	return dist
}
