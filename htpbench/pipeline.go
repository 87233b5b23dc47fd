package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/anytime"
	"repro/internal/flowrefine"
	"repro/internal/fm"
	"repro/internal/hierarchy"
	"repro/internal/htp"
	"repro/internal/hypergraph"
	"repro/internal/inject"
	"repro/internal/multilevel"
	"repro/internal/verify"
)

// specFor is htpart's default hierarchy: a full binary tree of height 4,
// level weights 2^l, capacity slack 1.1.
func specFor(h *hypergraph.Hypergraph) (hierarchy.Spec, error) {
	return hierarchy.BinaryTreeSpec(h.TotalSize(), 4, hierarchy.GeometricWeights(4, 2), 1.1)
}

// certify re-checks p and its reported cost with internal/verify.
func certify(p *hierarchy.Partition, cost float64) error {
	if p == nil {
		return errors.New("no partition")
	}
	return verify.Certify(p, cost).Err()
}

// solveML is `htpart -multilevel -flow-refine` on netlist bytes: parse, the
// V-cycle with flow refinement on the finest level, certification.
func solveML(ctx context.Context, netlist []byte, seed int64) (float64, error) {
	h, err := hypergraph.ReadFrom(bytes.NewReader(netlist))
	if err != nil {
		return 0, err
	}
	spec, err := specFor(h)
	if err != nil {
		return 0, err
	}
	mo := htp.MultilevelOptions{Strategy: "flow", CoarsenTarget: 300, Seed: seed, Workers: 1, FlowRefine: true}
	mo.FlowRefineOpt.Certify = verify.Certifier()
	res, err := htp.MultilevelCtx(ctx, h, spec, mo)
	if err != nil {
		return 0, err
	}
	return res.Cost, certify(res.Partition, res.Cost)
}

// solveFlowPlus is `htpart -algo flow+ -flow-refine` on netlist bytes:
// parse, FLOW+ with the paper's N=4, the flow-refine post-pass,
// certification.
func solveFlowPlus(ctx context.Context, netlist []byte, seed int64) (float64, error) {
	h, err := hypergraph.ReadFrom(bytes.NewReader(netlist))
	if err != nil {
		return 0, err
	}
	spec, err := specFor(h)
	if err != nil {
		return 0, err
	}
	res, _, err := htp.FlowPlusCtx(ctx, h, spec, htp.FlowOptions{Iterations: 4, PartitionsPerMetric: 1,
		Seed: seed, Inject: inject.Options{Workers: 1}}, fm.RefineOptions{})
	if err != nil {
		return 0, err
	}
	cost, _, _, err := htp.FlowRefineCtx(ctx, res.Partition, htp.FlowRefineOptions{
		Seed: seed, Workers: 1, Certify: verify.Certifier()})
	if err != nil {
		return 0, err
	}
	return cost, certify(res.Partition, cost)
}

// layerCounts are the deterministic work counts of one traced pass.
type layerCounts struct {
	levels, coarsestNodes, coarsestNets, coarsestPins int
	metrics, converged, rounds, injections, treeNets  int
	builds                                            int
	boundaryGain, hierGain                            float64
	pairs, accepted, proposed                         int
	flowGain                                          float64
}

// tracedCall times one layer call as a child span of parent.
type tracedCall struct {
	tr     *tracer
	run    string
	parent int
}

func (c tracedCall) do(name string, level int, f func()) {
	id := c.tr.begin(c.run, c.parent, name, level)
	f()
	c.tr.end(id)
}

// parse is the traced hypergraph layer plus the hierarchy spec.
func (c tracedCall) parse(netlist []byte) (*hypergraph.Hypergraph, hierarchy.Spec, error) {
	var h *hypergraph.Hypergraph
	var err error
	c.do("hypergraph.parse", -1, func() { h, err = hypergraph.ReadFrom(bytes.NewReader(netlist)) })
	if err != nil {
		return nil, hierarchy.Spec{}, err
	}
	spec, err := specFor(h)
	return h, spec, err
}

// flowConfig is what htp.FlowCtx needs from its options here.
type flowConfig struct {
	iterations, perMetric, maxRounds int
	seed                             int64
}

// flow is htp.FlowCtx (sequential, no telemetry) composed from its layers:
// per iteration one spreading metric (inject) and perMetric constructions
// (htp.BuildCtx), seeds pre-drawn in FlowCtx's order, keeping the first
// strictly cheapest valid partition.
func (c tracedCall) flow(ctx context.Context, h *hypergraph.Hypergraph, spec hierarchy.Spec, fc flowConfig, lc *layerCounts) (*hierarchy.Partition, float64, error) {
	rng := rand.New(rand.NewSource(fc.seed))
	injectSeeds := make([]int64, fc.iterations)
	buildSeeds := make([][]int64, fc.iterations)
	for i := range injectSeeds {
		injectSeeds[i] = rng.Int63()
		buildSeeds[i] = make([]int64, fc.perMetric)
		for b := range buildSeeds[i] {
			buildSeeds[i][b] = rng.Int63()
		}
	}
	var best *hierarchy.Partition
	var bestCost float64
	var firstErr error
	for i := 0; i < fc.iterations; i++ {
		var d []float64
		var err error
		c.do("inject.metric", -1, func() {
			m, st, merr := inject.ComputeMetricCtx(ctx, h, spec, inject.Options{MaxRounds: fc.maxRounds,
				Workers: 1, Rng: rand.New(rand.NewSource(injectSeeds[i]))})
			err = merr
			if merr == nil {
				d = m.D
				lc.metrics++
				lc.rounds += st.Rounds
				lc.injections += st.Injections
				lc.treeNets += st.TreeNets
				if st.Converged {
					lc.converged++
				}
			}
		})
		if err != nil {
			return nil, 0, err
		}
		for _, bs := range buildSeeds[i] {
			var p *hierarchy.Partition
			var cost float64
			c.do("htp.build", -1, func() {
				p, err = htp.BuildCtx(ctx, h, spec, d, htp.BuildOptions{Rng: rand.New(rand.NewSource(bs))})
				if err == nil {
					err = p.Validate()
				}
				if err == nil {
					cost = p.Cost()
				}
			})
			lc.builds++
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			if best == nil || cost < bestCost {
				best, bestCost = p, cost
			}
		}
	}
	if best == nil {
		return nil, 0, fmt.Errorf("%w: %v", anytime.ErrNoPartition, firstErr)
	}
	return best, bestCost, nil
}

// flowRefine is the traced flowrefine layer.
func (c tracedCall) flowRefine(ctx context.Context, p *hierarchy.Partition, opt flowrefine.Options, lc *layerCounts) (float64, error) {
	var cost, gain float64
	var st flowrefine.Stats
	var err error
	c.do("flowrefine.refine", -1, func() { cost, gain, st, err = flowrefine.RefineCtx(ctx, p, opt) })
	lc.pairs += st.Pairs
	lc.accepted += st.Accepted
	lc.proposed += st.Accepted + st.RejectedWorse + st.RejectedInfeasible
	lc.flowGain += gain
	return cost, err
}

// certify is the traced verify layer.
func (c tracedCall) certify(p *hierarchy.Partition, cost float64) error {
	var err error
	c.do("verify.certify", -1, func() { err = certify(p, cost) })
	return err
}

// tracedML is solveML composed from the layers' public functions, in
// htp.MultilevelCtx's order and with its defaults: coarsen, the coarse FLOW
// stage (one metric, two constructions, at most 24 metric rounds; one level
// finer when the coarsest level is unpackable), per-level projection and
// boundary FM, flow refinement, certification. Its cost must equal
// solveML's exactly.
func tracedML(ctx context.Context, c tracedCall, netlist []byte, seed int64, lc *layerCounts) (float64, error) {
	h, spec, err := c.parse(netlist)
	if err != nil {
		return 0, err
	}
	const target = 300
	maxCluster := h.TotalSize() / target
	if half := (spec.Capacity[0] + 1) / 2; maxCluster > half {
		maxCluster = half
	}
	maxCluster = max(maxCluster, 1)
	var stack *multilevel.Stack
	c.do("multilevel.coarsen", -1, func() {
		stack, err = multilevel.Coarsen(ctx, h, multilevel.CoarsenOptions{TargetNodes: target,
			MaxClusterSize: maxCluster, Workers: 1, Seed: seed})
	})
	if err != nil {
		return 0, err
	}
	fc := flowConfig{iterations: 1, perMetric: 2, maxRounds: 24, seed: seed}
	p, cost, err := c.flow(ctx, stack.Coarsest(), spec, fc, lc)
	for err != nil && errors.Is(err, anytime.ErrNoPartition) && ctx.Err() == nil && len(stack.Levels) > 0 {
		stack.Levels = stack.Levels[:len(stack.Levels)-1]
		p, cost, err = c.flow(ctx, stack.Coarsest(), spec, fc, lc)
	}
	if err != nil {
		return 0, err
	}
	hc := stack.Coarsest()
	lc.levels = len(stack.Levels)
	lc.coarsestNodes, lc.coarsestNets, lc.coarsestPins = hc.NumNodes(), hc.NumNets(), hc.NumPins()

	rng := rand.New(rand.NewSource(seed + 11))
	for i := len(stack.Levels) - 1; i >= 0; i-- {
		c.do("multilevel.project", -1, func() { p, err = stack.Project(i, p) })
		if err != nil {
			return 0, err
		}
		levelRng := rand.New(rand.NewSource(rng.Int63()))
		var gain float64
		c.do("fm.boundary", i, func() {
			cost, gain = fm.RefineBoundaryCtx(ctx, p, fm.BoundaryOptions{MaxPasses: 8, Rng: levelRng})
		})
		lc.boundaryGain += gain
	}
	cost, err = c.flowRefine(ctx, p, flowrefine.Options{Workers: 1, Seed: seed + 11 + 29,
		Certify: verify.Certifier()}, lc)
	if err != nil {
		return 0, err
	}
	return cost, c.certify(p, cost)
}

// tracedFlowPlus is solveFlowPlus composed from the layers' public
// functions: the FLOW driver (inject + build), hierarchical FM with
// FlowPlusCtx's seed, flow refinement, certification. Its cost must equal
// solveFlowPlus's exactly.
func tracedFlowPlus(ctx context.Context, c tracedCall, netlist []byte, seed int64, lc *layerCounts) (float64, error) {
	h, spec, err := c.parse(netlist)
	if err != nil {
		return 0, err
	}
	p, cost, err := c.flow(ctx, h, spec, flowConfig{iterations: 4, perMetric: 1, seed: seed}, lc)
	if err != nil {
		return 0, err
	}
	var gain float64
	c.do("fm.hier", -1, func() {
		cost, gain = fm.RefineHierarchicalCtx(ctx, p, fm.RefineOptions{Rng: rand.New(rand.NewSource(seed + 7))})
	})
	lc.hierGain += gain
	cost, err = c.flowRefine(ctx, p, flowrefine.Options{Workers: 1, Seed: seed, Certify: verify.Certifier()}, lc)
	if err != nil {
		return 0, err
	}
	return cost, c.certify(p, cost)
}
