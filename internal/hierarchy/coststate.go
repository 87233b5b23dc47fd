package hierarchy

import (
	"math"

	"repro/internal/hypergraph"
)

// CostState maintains the hierarchical cost of a partition incrementally
// under leaf-to-leaf node moves. It is the bookkeeping behind the paper's
// FM-based iterative improvement ("+"-variants): a move's cost delta is
// computed in O(Σ_{e∋v} levels) without re-evaluating any net from scratch,
// and capacity feasibility is checked along the destination root path.
//
// Per (net, level) it counts the net's pins in each level block, in flat
// arrays rather than a map per pair. A net touches at most min(|e|, n_l)
// distinct level-l blocks, where n_l is the number of tree vertices at
// level l, and net e at level l owns exactly that many slots, starting at
// pairs[i].off (i = e·top + l) — so the table holds at most pins × levels
// slots however wide the tree is. A range of n_l slots is dense: block b's
// count sits at slot off + rank[b], found in O(1), which is what the giant
// nets spanning every block need. A shorter range is a list whose first
// pairs[i].n entries are the live (block, count) pairs, unordered, scanned
// on lookup; the net has fewer pins than the level has blocks, so the list
// is short.
//
// The tree must not change while a CostState is live.
type CostState struct {
	P   *Partition
	top int // root level

	anc   [][]int32    // anc[leaf] = ancestor vertex at each level 0..top
	rank  []int32      // rank[q] = index of q among its level's vertices
	width []int32      // width[l] = number of tree vertices at level l
	pairs []pairSlots  // pairs[e*top+l] = net e's level-l slots; one sentinel
	slots []blockCount // per-pair (block, pin count) ranges
	sizes []int64      // per-vertex assigned size
	cost  float64
}

// pairSlots is one (net, level) pair's slot range, which starts at slot off
// and ends where the next pair's begins; n is the number of distinct blocks
// the net touches at that level. Offset and count share one word so a
// lookup touches a single cache line before the slots themselves.
type pairSlots struct {
	off, n int32
}

// blockCount is one live slot: a block and the number of the net's pins in it.
type blockCount struct {
	block, count int32
}

// NewCostState builds the incremental state; every node must be assigned.
func NewCostState(p *Partition) *CostState {
	top := p.Tree.Level(p.Tree.Root())
	if top > p.Spec.Height() {
		top = p.Spec.Height()
	}
	nets := p.H.NumNets()
	cs := &CostState{
		P:     p,
		top:   top,
		anc:   make([][]int32, p.Tree.NumVertices()),
		rank:  make([]int32, p.Tree.NumVertices()),
		width: make([]int32, top+1),
		pairs: make([]pairSlots, nets*top+1),
		sizes: make([]int64, p.Tree.NumVertices()),
	}
	for _, leaf := range p.Tree.Leaves() {
		row := make([]int32, top+1)
		q := leaf
		for l := 0; l <= top; l++ {
			row[l] = int32(q)
			if l < top {
				q = p.Tree.Parent(q)
			}
		}
		cs.anc[leaf] = row
	}
	for v := 0; v < p.H.NumNodes(); v++ {
		leaf := p.LeafOf[v]
		if leaf < 0 {
			panic("hierarchy: CostState over unassigned node")
		}
		s := p.H.NodeSize(hypergraph.NodeID(v))
		for q := int(leaf); q >= 0; q = p.Tree.Parent(q) {
			cs.sizes[q] += s
		}
	}
	for q := 0; q < p.Tree.NumVertices(); q++ {
		if l := p.Tree.Level(q); l <= top {
			cs.rank[q] = cs.width[l]
			cs.width[l]++
		}
	}
	total := 0
	for e := 0; e < nets; e++ {
		card := len(p.H.Pins(hypergraph.NetID(e)))
		for l := 0; l < top; l++ {
			cs.pairs[e*top+l].off = int32(total)
			total += min(card, int(cs.width[l]))
		}
	}
	if total > math.MaxInt32 {
		panic("hierarchy: CostState slot table exceeds 2^31 entries")
	}
	cs.pairs[nets*top].off = int32(total)
	cs.slots = make([]blockCount, total)

	// slotOf[b] is block b's slot in the pair being counted, valid while
	// stamp[b] names that pair: an O(1) lookup, so counting stays linear
	// in pins even for nets spread over many blocks.
	slotOf := make([]int32, p.Tree.NumVertices())
	stamp := make([]int, p.Tree.NumVertices())
	for q := range stamp {
		stamp[q] = -1
	}
	for e := 0; e < nets; e++ {
		for l := 0; l < top; l++ {
			i := e*top + l
			pr := &cs.pairs[i]
			dense := cs.dense(i, l)
			for _, v := range p.H.Pins(hypergraph.NetID(e)) {
				b := cs.anc[p.LeafOf[v]][l]
				if stamp[b] != i {
					stamp[b], slotOf[b] = i, pr.off+pr.n
					if dense {
						slotOf[b] = pr.off + cs.rank[b]
					}
					cs.slots[slotOf[b]].block = b
					pr.n++
				}
				cs.slots[slotOf[b]].count++
			}
			cs.cost += p.Spec.Weight[l] * spanValue(int(pr.n)) * p.H.NetCapacity(hypergraph.NetID(e))
		}
	}
	return cs
}

func spanValue(blocks int) float64 {
	if blocks <= 1 {
		return 0
	}
	return float64(blocks)
}

// Cost returns the current total interconnection cost.
func (cs *CostState) Cost() float64 { return cs.cost }

// TopLevel returns the number of levels with cost contributions.
func (cs *CostState) TopLevel() int { return cs.top }

// BlockSize returns the size currently assigned to tree vertex q.
func (cs *CostState) BlockSize(q int) int64 { return cs.sizes[q] }

// divergeLevel returns the lowest level at which the two leaves share an
// ancestor; levels below it differ.
func (cs *CostState) divergeLevel(a, b int32) int {
	ra, rb := cs.anc[a], cs.anc[b]
	for l := 0; l <= cs.top; l++ {
		if ra[l] == rb[l] {
			return l
		}
	}
	return cs.top
}

// dense reports whether pair i (at level l) has a slot for every level-l
// block, indexed by rank.
func (cs *CostState) dense(i, l int) bool {
	return cs.pairs[i+1].off-cs.pairs[i].off == cs.width[l]
}

// locate returns the slots counting blocks a and b in pair i at level l. In
// a list range a block the net does not touch has no slot: -1.
func (cs *CostState) locate(i, l int, a, b int32) (sa, sb int32) {
	pr := cs.pairs[i]
	if cs.dense(i, l) {
		return pr.off + cs.rank[a], pr.off + cs.rank[b]
	}
	sa, sb = -1, -1
	for k := pr.off; k < pr.off+pr.n; k++ {
		switch cs.slots[k].block {
		case a:
			sa = k
		case b:
			sb = k
		}
	}
	return sa, sb
}

// count returns the pin count held in slot k, 0 for no slot.
func (cs *CostState) count(k int32) int32 {
	if k < 0 {
		return 0
	}
	return cs.slots[k].count
}

// MoveDelta returns the cost change of moving node v to leaf toLeaf
// (negative is an improvement). Moving to the current leaf returns 0.
func (cs *CostState) MoveDelta(v hypergraph.NodeID, toLeaf int) float64 {
	from := cs.P.LeafOf[v]
	to := int32(toLeaf)
	if from == to {
		return 0
	}
	lca := cs.divergeLevel(from, to)
	var delta float64
	for _, e := range cs.P.H.Incident(v) {
		c := cs.P.H.NetCapacity(e)
		for l := 0; l < lca; l++ {
			idx := int(e)*cs.top + l
			a, b := cs.anc[from][l], cs.anc[to][l]
			if a == b {
				continue
			}
			sa, sb := cs.locate(idx, l, a, b)
			old := int(cs.pairs[idx].n)
			now := old
			if cs.count(sa) == 1 {
				now--
			}
			if cs.count(sb) == 0 {
				now++
			}
			delta += cs.P.Spec.Weight[l] * c * (spanValue(now) - spanValue(old))
		}
	}
	return delta
}

// CanMove reports whether moving v to toLeaf respects all capacities on the
// destination root path (only levels below the diverge point gain size).
func (cs *CostState) CanMove(v hypergraph.NodeID, toLeaf int) bool {
	from := cs.P.LeafOf[v]
	to := int32(toLeaf)
	if from == to {
		return true
	}
	lca := cs.divergeLevel(from, to)
	s := cs.P.H.NodeSize(v)
	for l := 0; l < lca && l < cs.P.Spec.Height(); l++ {
		q := cs.anc[to][l]
		if cs.sizes[q]+s > cs.P.Spec.Capacity[l] {
			return false
		}
	}
	return true
}

// Apply moves v to toLeaf, updating the assignment, sizes, span counts, and
// cost. It returns the realized cost delta (equal to MoveDelta beforehand).
func (cs *CostState) Apply(v hypergraph.NodeID, toLeaf int) float64 {
	from := cs.P.LeafOf[v]
	to := int32(toLeaf)
	if from == to {
		return 0
	}
	lca := cs.divergeLevel(from, to)
	var delta float64
	for _, e := range cs.P.H.Incident(v) {
		c := cs.P.H.NetCapacity(e)
		for l := 0; l < lca; l++ {
			idx := int(e)*cs.top + l
			a, b := cs.anc[from][l], cs.anc[to][l]
			if a == b {
				continue
			}
			sa, sb := cs.locate(idx, l, a, b)
			pr := &cs.pairs[idx]
			old := int(pr.n)
			// v's pin leaves a (a list range drops a block it no longer
			// touches by swapping the last live entry into its slot) ...
			cs.slots[sa].count--
			if cs.slots[sa].count == 0 {
				pr.n--
				if !cs.dense(idx, l) {
					last := pr.off + pr.n
					cs.slots[sa] = cs.slots[last]
					if sb == last {
						sb = sa
					}
				}
			}
			// ... and joins b (a list range appends a block it starts to
			// touch; the slot freed above keeps it within the range).
			if sb < 0 {
				sb = pr.off + pr.n
				cs.slots[sb] = blockCount{block: b}
			}
			if cs.slots[sb].count == 0 {
				pr.n++
			}
			cs.slots[sb].count++
			now := int(pr.n)
			delta += cs.P.Spec.Weight[l] * c * (spanValue(now) - spanValue(old))
		}
	}
	s := cs.P.H.NodeSize(v)
	for l := 0; l < lca; l++ {
		cs.sizes[cs.anc[from][l]] -= s
		cs.sizes[cs.anc[to][l]] += s
	}
	cs.P.LeafOf[v] = to
	cs.cost += delta
	return delta
}
