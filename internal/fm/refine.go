package fm

import (
	"context"
	"math/rand"
	"time"

	"repro/internal/hierarchy"
	"repro/internal/hypergraph"
	"repro/internal/obs"
)

// RefineOptions tunes the hierarchical improvement.
type RefineOptions struct {
	// MaxPasses bounds sweeps over all nodes. Default 20.
	MaxPasses int
	// Rng orders the sweep. Defaults to a fixed seed.
	Rng *rand.Rand
	// Observer receives one refine-pass event per pass (cost after the
	// pass) and a terminal "refine" span with the total elapsed time. The
	// *Plus solvers forward their run observer here automatically. Nil
	// disables telemetry at zero cost.
	Observer obs.Observer
	// Span nests the refinement's events in the caller's span tree (one
	// child span per RefineHierarchicalCtx run). Zero value is fine.
	Span obs.SpanScope
}

func (o RefineOptions) withDefaults() RefineOptions {
	if o.MaxPasses == 0 {
		o.MaxPasses = 20
	}
	if o.Rng == nil {
		o.Rng = rand.New(rand.NewSource(1))
	}
	return o
}

// RefineHierarchical improves a hierarchical tree partition in place by
// FM-style leaf-to-leaf node moves under the full hierarchical cost — the
// iterative improvement of Kuo, Liu & Cheng [9] that turns GFM/RFM/FLOW into
// GFM+/RFM+/FLOW+. Each pass visits every node in random order and applies
// the best capacity-feasible move among candidate leaves (the leaves holding
// other pins of the node's nets, the natural K-way-FM candidate set).
// Passes repeat until one yields no improvement or MaxPasses is reached.
//
// Returns the final cost and the total improvement (initial − final >= 0).
// It is RefineHierarchicalCtx without cancellation.
func RefineHierarchical(p *hierarchy.Partition, opt RefineOptions) (cost, improvement float64) {
	return RefineHierarchicalCtx(context.Background(), p, opt)
}

// RefineHierarchicalCtx is RefineHierarchical under a context, checked on
// every pass and periodically within a pass. Refinement mutates the
// partition in place and every intermediate state is valid and no worse
// than the previous one, so cancellation simply stops early and returns
// the best cost reached — a pure anytime improver.
func RefineHierarchicalCtx(ctx context.Context, p *hierarchy.Partition, opt RefineOptions) (cost, improvement float64) {
	opt = opt.withDefaults()
	_, opt.Observer = opt.Span.Enter(opt.Observer)
	cs := hierarchy.NewCostState(p)
	initial := cs.Cost()

	var t0 time.Time
	if opt.Observer != nil {
		t0 = time.Now()
		// The span is emitted on every exit path (cancellation included) so
		// run reports always attribute refinement time.
		defer func() {
			obs.Emit(opt.Observer, obs.Event{Kind: obs.KindSpan, Phase: "refine",
				Cost: cs.Cost(), ElapsedMS: obs.Millis(time.Since(t0))})
		}()
	}

	n := p.H.NumNodes()
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	// Candidate-leaf scratch, deduplicated with a generation stamp.
	seen := make(map[int32]bool, 16)
	// Every candidate is another leaf, so a node's scan stops once all of
	// them have appeared: the pins left would only repeat seen leaves.
	others := len(p.Tree.Leaves()) - 1

	for pass := 0; pass < opt.MaxPasses && ctx.Err() == nil; pass++ {
		improved := false
		opt.Rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
		for oi, vi := range order {
			if oi&255 == 255 && ctx.Err() != nil {
				return cs.Cost(), initial - cs.Cost()
			}
			v := hypergraph.NodeID(vi)
			from := p.LeafOf[v]
			clear(seen)
			bestDelta := -1e-12
			bestLeaf := -1
		scan:
			for _, e := range p.H.Incident(v) {
				for _, u := range p.H.Pins(e) {
					leaf := p.LeafOf[u]
					if leaf == from || seen[leaf] {
						continue
					}
					seen[leaf] = true
					if cs.CanMove(v, int(leaf)) {
						if d := cs.MoveDelta(v, int(leaf)); d < bestDelta {
							bestDelta = d
							bestLeaf = int(leaf)
						}
					}
					if len(seen) == others {
						break scan
					}
				}
			}
			if bestLeaf >= 0 {
				cs.Apply(v, bestLeaf)
				improved = true
			}
		}
		if opt.Observer != nil {
			obs.Emit(opt.Observer, obs.Event{Kind: obs.KindRefinePass, Round: pass + 1,
				Cost: cs.Cost(), ElapsedMS: obs.Millis(time.Since(t0))})
		}
		if !improved {
			break
		}
	}
	return cs.Cost(), initial - cs.Cost()
}

// GrowSeedSide builds an initial bipartition side by breadth-first growth
// from seed until the side size reaches target (it may overshoot by one
// node). Disconnected remainders are left on the B side. Used to prime
// RefineBipartition.
func GrowSeedSide(h *hypergraph.Hypergraph, seed hypergraph.NodeID, target int64) []bool {
	return GrowSeedSideCtx(context.Background(), h, seed, target)
}

// GrowSeedSideCtx is GrowSeedSide under a context: the breadth-first growth
// polls cancellation every 256 dequeues and returns the side grown so far,
// which is always a valid (if undersized) seed region for refinement.
func GrowSeedSideCtx(ctx context.Context, h *hypergraph.Hypergraph, seed hypergraph.NodeID, target int64) []bool {
	inA := make([]bool, h.NumNodes())
	inA[seed] = true
	size := h.NodeSize(seed)
	queue := []hypergraph.NodeID{seed}
	for steps := 0; len(queue) > 0 && size < target; steps++ {
		if steps&255 == 255 && ctx.Err() != nil {
			return inA
		}
		v := queue[0]
		queue = queue[1:]
		for _, e := range h.Incident(v) {
			for _, u := range h.Pins(e) {
				if inA[u] {
					continue
				}
				inA[u] = true
				size += h.NodeSize(u)
				queue = append(queue, u)
				if size >= target {
					return inA
				}
			}
		}
	}
	// If growth stalled on a small component, absorb arbitrary nodes.
	for v := 0; v < h.NumNodes() && size < target; v++ {
		if !inA[v] {
			inA[v] = true
			size += h.NodeSize(hypergraph.NodeID(v))
		}
	}
	return inA
}

// RecursiveBisection splits the hypergraph into blocks of size at most
// maxBlock by recursive FM bisection, aiming for balanced halves. It
// returns the block index of every node and the number of blocks.
func RecursiveBisection(h *hypergraph.Hypergraph, maxBlock int64, opt BiOptions) ([]int, int) {
	opt = opt.withDefaults()
	blockOf := make([]int, h.NumNodes())
	nextBlock := 0

	var split func(sub *hypergraph.Hypergraph, orig []hypergraph.NodeID)
	split = func(sub *hypergraph.Hypergraph, orig []hypergraph.NodeID) {
		if sub.TotalSize() <= maxBlock {
			b := nextBlock
			nextBlock++
			for _, v := range orig {
				blockOf[v] = b
			}
			return
		}
		// Part-count-aware window: the subgraph needs k = ceil(size/max)
		// blocks; side A takes ceil(k/2) of them. The window is exactly the
		// sizes from which both sides can still be packed into their share
		// of maxBlock-sized blocks — symmetric ±10% windows drift and
		// produce extra undersized blocks that break bottom-up grouping.
		total := sub.TotalSize()
		k := (total + maxBlock - 1) / maxBlock
		kA := (k + 1) / 2
		lb := total - (k-kA)*maxBlock
		ub := kA * maxBlock
		if lb < 1 {
			lb = 1
		}
		if ub >= total {
			ub = total - 1
		}
		target := total * kA / k
		seed := hypergraph.NodeID(opt.Rng.Intn(sub.NumNodes()))
		inA := GrowSeedSide(sub, seed, target)
		RefineBipartition(sub, inA, lb, ub, opt)
		var aNodes, bNodes []hypergraph.NodeID
		var aOrig, bOrig []hypergraph.NodeID
		for v := 0; v < sub.NumNodes(); v++ {
			if inA[v] {
				aNodes = append(aNodes, hypergraph.NodeID(v))
				aOrig = append(aOrig, orig[v])
			} else {
				bNodes = append(bNodes, hypergraph.NodeID(v))
				bOrig = append(bOrig, orig[v])
			}
		}
		if len(aNodes) == 0 || len(bNodes) == 0 {
			// Refinement degenerated (e.g. single huge node): force a split.
			b := nextBlock
			nextBlock++
			for _, v := range orig {
				blockOf[v] = b
			}
			return
		}
		subA, _, _ := sub.InducedSubgraph(aNodes)
		subB, _, _ := sub.InducedSubgraph(bNodes)
		split(subA, aOrig)
		split(subB, bOrig)
	}

	all := make([]hypergraph.NodeID, h.NumNodes())
	for i := range all {
		all[i] = hypergraph.NodeID(i)
	}
	split(h, all)
	return blockOf, nextBlock
}
