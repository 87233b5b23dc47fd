package shortest

import (
	"math/rand"
	"testing"

	"repro/internal/hypergraph"
)

// refGrow is grow without the no-op scan skip: the differential reference
// the skipping grower must match visit for visit. It uses the grower's
// workspaces, so it runs on a HyperSPT of its own.
func refGrow(s *HyperSPT, root hypergraph.NodeID, lengths []float64, length func(hypergraph.NetID) float64, visit func(Visit) bool) int {
	s.reset()
	s.gen++
	nodes := s.nodes
	netGen, gen, heap := s.netGen, s.gen, s.heap
	incStart, incList := s.incStart, s.incList
	pinStart, pinList := s.pinStart, s.pinList
	nodes[root] = sptNode{dist: 0, via: -1, parent: -1, state: 1}
	s.touch = append(s.touch, int32(root))
	heap.Push(int(root), 0)

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
			for _, u := range pinList[pinStart[e]:pinStart[e+1]] {
				nu := &nodes[u]
				if nu.state == 2 || int(u) == vi {
					continue
				}
				if nu.state == 0 {
					*nu = sptNode{dist: nd, via: e, parent: int32(vi), state: 1}
					s.touch = append(s.touch, u)
					heap.Push(int(u), nd)
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

// tiedHypergraph draws a random hypergraph whose structure the test picks:
// components splits the nodes into that many disconnected groups, and
// density scales the net count per node (high density mimics a coarsest
// multilevel level, where every growth reaches every node quickly).
func tiedHypergraph(rng *rand.Rand, n, components int, density float64) *hypergraph.Hypergraph {
	b := hypergraph.NewBuilder()
	b.AddUnitNodes(n)
	group := func(v int) int { return v % components }
	nets := int(density * float64(n))
	for e := 0; e < nets; e++ {
		g := rng.Intn(components)
		card := 2 + rng.Intn(3)
		if rng.Intn(8) == 0 {
			card += rng.Intn(n / components)
		}
		var pins []hypergraph.NodeID
		seen := map[int]bool{}
		for tries := 0; len(pins) < card && tries < 4*card; tries++ {
			v := rng.Intn(n)
			if group(v) == g && !seen[v] {
				seen[v] = true
				pins = append(pins, hypergraph.NodeID(v))
			}
		}
		if len(pins) >= 2 {
			b.AddNet("", 1, pins...)
		}
	}
	return b.MustBuild()
}

// TestGrowMatchesReference compares the skipping grower with the
// reference, visit for visit, on hypergraphs with heavily tied lengths:
// sparse and dense, connected and disconnected, with visitors that run to
// exhaustion and visitors that stop early, through both the slice and the
// closure length paths.
func TestGrowMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	palette := []float64{0, 0.25, 0.5, 1, 1.5}
	for trial := 0; trial < 60; trial++ {
		n := 10 + rng.Intn(120)
		components := 1 + rng.Intn(3)
		density := []float64{0.5, 2, 12}[trial%3]
		h := tiedHypergraph(rng, n, components, density)
		lengths := make([]float64, h.NumNets())
		for e := range lengths {
			lengths[e] = palette[rng.Intn(len(palette))]
		}
		length := func(e hypergraph.NetID) float64 { return lengths[e] }
		s, ref := NewHyperSPT(h), NewHyperSPT(h)
		for g := 0; g < 40; g++ {
			root := hypergraph.NodeID(rng.Intn(n))
			limit := n + 1
			if g%2 == 1 {
				limit = 1 + rng.Intn(n)
			}
			var got, want []Visit
			record := func(out *[]Visit) func(Visit) bool {
				return func(v Visit) bool {
					*out = append(*out, v)
					return len(*out) < limit
				}
			}
			var gotN, wantN int
			if g%4 < 2 {
				gotN = s.GrowLengths(root, lengths, record(&got))
				wantN = refGrow(ref, root, lengths, nil, record(&want))
			} else {
				gotN = s.Grow(root, length, record(&got))
				wantN = refGrow(ref, root, nil, length, record(&want))
			}
			if gotN != wantN || len(got) != len(want) {
				t.Fatalf("trial %d growth %d: settled %d (%d visits), reference %d (%d)",
					trial, g, gotN, len(got), wantN, len(want))
			}
			if limit > n && gotN != int(s.compSize[root]) {
				t.Fatalf("trial %d growth %d: full growth settled %d, component size %d",
					trial, g, gotN, s.compSize[root])
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("trial %d growth %d: visit %d is %+v, reference %+v", trial, g, i, got[i], want[i])
				}
			}
		}
	}
}
