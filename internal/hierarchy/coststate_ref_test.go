package hierarchy

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/hypergraph"
)

// refCostState keeps the pin counts in one map per (net, level), the
// straightforward formulation: the differential reference whose deltas
// and costs the flat slot table must reproduce bit for bit.
type refCostState struct {
	P   *Partition
	top int // root level

	anc    [][]int32 // anc[leaf] = ancestor vertex at each level 0..top
	counts []map[int32]int32
	blocks []int32 // blocks[e*top+l] = number of distinct level-l blocks of net e
	sizes  []int64 // per-vertex assigned size
	cost   float64
}

// newRefCostState builds the incremental state; every node must be assigned.
func newRefCostState(p *Partition) *refCostState {
	top := p.Tree.Level(p.Tree.Root())
	if top > p.Spec.Height() {
		top = p.Spec.Height()
	}
	cs := &refCostState{
		P:      p,
		top:    top,
		anc:    make([][]int32, p.Tree.NumVertices()),
		counts: make([]map[int32]int32, p.H.NumNets()*top),
		blocks: make([]int32, p.H.NumNets()*top),
		sizes:  make([]int64, p.Tree.NumVertices()),
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
			panic("hierarchy: refCostState over unassigned node")
		}
		s := p.H.NodeSize(hypergraph.NodeID(v))
		for q := int(leaf); q >= 0; q = p.Tree.Parent(q) {
			cs.sizes[q] += s
		}
	}
	for e := 0; e < p.H.NumNets(); e++ {
		for l := 0; l < top; l++ {
			idx := e*top + l
			cs.counts[idx] = make(map[int32]int32, 4)
			for _, v := range p.H.Pins(hypergraph.NetID(e)) {
				b := cs.anc[p.LeafOf[v]][l]
				cs.counts[idx][b]++
			}
			cs.blocks[idx] = int32(len(cs.counts[idx]))
			cs.cost += p.Spec.Weight[l] * spanValue(int(cs.blocks[idx])) * p.H.NetCapacity(hypergraph.NetID(e))
		}
	}
	return cs
}

// Cost returns the current total interconnection cost.
func (cs *refCostState) Cost() float64 { return cs.cost }

// BlockSize returns the size currently assigned to tree vertex q.
func (cs *refCostState) BlockSize(q int) int64 { return cs.sizes[q] }

// divergeLevel returns the lowest level at which the two leaves share an
// ancestor; levels below it differ.
func (cs *refCostState) divergeLevel(a, b int32) int {
	ra, rb := cs.anc[a], cs.anc[b]
	for l := 0; l <= cs.top; l++ {
		if ra[l] == rb[l] {
			return l
		}
	}
	return cs.top
}

// MoveDelta returns the cost change of moving node v to leaf toLeaf
// (negative is an improvement). Moving to the current leaf returns 0.
func (cs *refCostState) MoveDelta(v hypergraph.NodeID, toLeaf int) float64 {
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
			old := int(cs.blocks[idx])
			now := old
			if cs.counts[idx][a] == 1 {
				now--
			}
			if cs.counts[idx][b] == 0 {
				now++
			}
			delta += cs.P.Spec.Weight[l] * c * (spanValue(now) - spanValue(old))
		}
	}
	return delta
}

// CanMove reports whether moving v to toLeaf respects all capacities on the
// destination root path (only levels below the diverge point gain size).
func (cs *refCostState) CanMove(v hypergraph.NodeID, toLeaf int) bool {
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
func (cs *refCostState) Apply(v hypergraph.NodeID, toLeaf int) float64 {
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
			old := int(cs.blocks[idx])
			now := old
			if cs.counts[idx][a] == 1 {
				delete(cs.counts[idx], a)
				now--
			} else {
				cs.counts[idx][a]--
			}
			if cs.counts[idx][b] == 0 {
				now++
			}
			cs.counts[idx][b]++
			cs.blocks[idx] = int32(now)
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

// randomLayeredTree grows a layered tree of the given root level whose
// vertices get 1..maxKids children each; every leaf sits at level 0.
func randomLayeredTree(rng *rand.Rand, rootLevel, maxKids int) *Tree {
	tr := NewTree(rootLevel)
	frontier := []int{tr.Root()}
	for lvl := rootLevel; lvl > 0; lvl-- {
		var next []int
		for _, q := range frontier {
			for k := 1 + rng.Intn(maxKids); k > 0; k-- {
				next = append(next, tr.AddChild(q))
			}
		}
		frontier = next
	}
	return tr
}

// gridTree is a full tree with the given branching at every level.
func gridTree(rootLevel, kids int) *Tree {
	tr := NewTree(rootLevel)
	frontier := []int{tr.Root()}
	for lvl := rootLevel; lvl > 0; lvl-- {
		var next []int
		for _, q := range frontier {
			for k := 0; k < kids; k++ {
				next = append(next, tr.AddChild(q))
			}
		}
		frontier = next
	}
	return tr
}

// randomNetlist mixes small nets with nets far larger than any level's
// block count, all with non-integral capacities so that the order of the
// floating-point sums matters.
func randomNetlist(rng *rand.Rand, nodes, nets, maxCard int) *hypergraph.Hypergraph {
	b := hypergraph.NewBuilder()
	for v := 0; v < nodes; v++ {
		b.AddNode("", int64(1+rng.Intn(3)))
	}
	for e := 0; e < nets; e++ {
		card := 2 + rng.Intn(4)
		if rng.Intn(6) == 0 {
			card = 2 + rng.Intn(maxCard-1)
		}
		perm := rng.Perm(nodes)[:card]
		pins := make([]hypergraph.NodeID, card)
		for i, v := range perm {
			pins[i] = hypergraph.NodeID(v)
		}
		b.AddNet("", 0.1+rng.Float64()*3, pins...)
	}
	return b.MustBuild()
}

// TestCostStateMatchesMapReference drives the flat table and the map-based
// reference through the same random move sequences — on narrow and
// 1024-leaf trees, irregular trees, trees taller than the spec, and nets
// larger than any level's block count — and requires every MoveDelta,
// Apply, Cost, CanMove and BlockSize to agree bit for bit.
func TestCostStateMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	type shape struct {
		name   string
		tree   func() *Tree
		height int // spec height; below the root level caps the cost levels
	}
	shapes := []shape{
		{"binary-h4", func() *Tree { return gridTree(4, 2) }, 4},
		{"grid-32x32", func() *Tree { return gridTree(2, 32) }, 2},
		{"binary-h10", func() *Tree { return gridTree(10, 2) }, 10},
		{"irregular-h3", func() *Tree { return randomLayeredTree(rng, 3, 5) }, 3},
		{"irregular-capped", func() *Tree { return randomLayeredTree(rng, 4, 3) }, 2},
	}
	for _, sh := range shapes {
		for trial := 0; trial < 3; trial++ {
			tr := sh.tree()
			h := randomNetlist(rng, 300, 400, 120)
			spec := Spec{
				Capacity: make([]int64, sh.height),
				Weight:   make([]float64, sh.height),
				Branch:   make([]int, sh.height),
			}
			for l := range spec.Capacity {
				spec.Capacity[l] = int64(40 << l)
				spec.Weight[l] = 0.3 + rng.Float64()*float64(l+1)
				spec.Branch[l] = 2
			}
			leaves := tr.Leaves()
			p := NewPartition(h, spec, tr)
			for v := 0; v < h.NumNodes(); v++ {
				// Skewed start: most nodes crowd a few leaves, so blocks
				// both fill and empty during the walk.
				leaf := leaves[rng.Intn(len(leaves))]
				if rng.Intn(2) == 0 {
					leaf = leaves[rng.Intn(min(4, len(leaves)))]
				}
				p.Assign(hypergraph.NodeID(v), leaf)
			}
			ref := newRefCostState(p.Clone())
			cs := NewCostState(p)
			if math.Float64bits(cs.Cost()) != math.Float64bits(ref.Cost()) {
				t.Fatalf("%s/%d: initial cost %v, reference %v", sh.name, trial, cs.Cost(), ref.Cost())
			}
			for step := 0; step < 3000; step++ {
				v := hypergraph.NodeID(rng.Intn(h.NumNodes()))
				to := leaves[rng.Intn(len(leaves))]
				if rng.Intn(3) == 0 {
					// Sibling-leaf moves exercise the low levels alone.
					to = int(cs.anc[p.LeafOf[v]][0])
					if par := tr.Parent(to); par >= 0 {
						kids := tr.Children(par)
						to = int(kids[rng.Intn(len(kids))])
					}
				}
				if got, want := cs.CanMove(v, to), ref.CanMove(v, to); got != want {
					t.Fatalf("%s/%d step %d: CanMove %v, reference %v", sh.name, trial, step, got, want)
				}
				d, rd := cs.MoveDelta(v, to), ref.MoveDelta(v, to)
				if math.Float64bits(d) != math.Float64bits(rd) {
					t.Fatalf("%s/%d step %d: MoveDelta %v, reference %v", sh.name, trial, step, d, rd)
				}
				a, ra := cs.Apply(v, to), ref.Apply(v, to)
				if math.Float64bits(a) != math.Float64bits(ra) {
					t.Fatalf("%s/%d step %d: Apply %v, reference %v", sh.name, trial, step, a, ra)
				}
				if math.Float64bits(cs.Cost()) != math.Float64bits(ref.Cost()) {
					t.Fatalf("%s/%d step %d: Cost %v, reference %v", sh.name, trial, step, cs.Cost(), ref.Cost())
				}
			}
			for q := 0; q < tr.NumVertices(); q++ {
				if cs.BlockSize(q) != ref.BlockSize(q) {
					t.Fatalf("%s/%d: vertex %d size %d, reference %d", sh.name, trial, q, cs.BlockSize(q), ref.BlockSize(q))
				}
			}
			for e := 0; e < h.NumNets(); e++ {
				for l := 0; l < cs.top; l++ {
					if got, want := int(cs.pairs[e*cs.top+l].n), p.Span(hypergraph.NetID(e), l); got != want && !(got == 1 && want == 0) {
						t.Fatalf("%s/%d: net %d level %d tracks %d blocks, span is %d", sh.name, trial, e, l, got, want)
					}
				}
			}
		}
	}
}

// TestCostStateMemoryBound pins the table's footprint on a 1024-leaf tree:
// the slot table never exceeds pins × levels entries, where a dense
// per-(net, tree vertex) counter array would need nets × vertices.
func TestCostStateMemoryBound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tr := gridTree(2, 32) // 32 level-1 blocks, 1024 leaves
	h := randomNetlist(rng, 2000, 3000, 600)
	spec := Spec{Capacity: []int64{64, 4096}, Weight: []float64{1, 2}, Branch: []int{32, 32}}
	leaves := tr.Leaves()
	if len(leaves) != 1024 {
		t.Fatalf("tree has %d leaves", len(leaves))
	}
	p := NewPartition(h, spec, tr)
	for v := 0; v < h.NumNodes(); v++ {
		p.Assign(hypergraph.NodeID(v), leaves[rng.Intn(len(leaves))])
	}
	cs := NewCostState(p)
	pins := 0
	for e := 0; e < h.NumNets(); e++ {
		pins += len(h.Pins(hypergraph.NetID(e)))
	}
	if bound := pins * cs.TopLevel(); len(cs.slots) > bound {
		t.Fatalf("%d slots for %d pins × %d levels", len(cs.slots), pins, cs.TopLevel())
	}
	if dense := h.NumNets() * tr.NumVertices(); len(cs.slots)*8 > dense {
		t.Fatalf("%d slots is not well below the %d dense counters", len(cs.slots), dense)
	}
	if len(cs.pairs) != h.NumNets()*cs.TopLevel()+1 {
		t.Fatalf("per-pair index sized %d for %d nets", len(cs.pairs), h.NumNets())
	}
}
