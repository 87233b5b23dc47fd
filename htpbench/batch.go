package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"repro/internal/circuits"
)

// Every workload does a fixed amount of work for a given --seconds, sized
// so that it takes about that long on the 2-core reference machine; a
// faster program then finishes sooner instead of doing more work, and every
// version is measured on the same inputs.

// mlSolveSeconds sizes an ml65k run: ceil(seconds / mlSolveSeconds)
// distinct instances (a solve takes 7–9 s on the reference machine). The
// certified cost of one instance swings by tens of percent from one
// generator seed to the next (the coarse stage lands differently), so a run
// averages over several, and gets more of the time budget than the other
// workloads.
const mlSolveSeconds = 6

// iscasPassSeconds is the reference time of one pass over the five
// circuits: an iscas run makes ceil(seconds / iscasPassSeconds) passes, each
// with its own solver seed.
const iscasPassSeconds = 15

// iscasSetupReps is how often an iscas run generates the five circuits; the
// median is setup_s.
const iscasSetupReps = 25

// input is one generated netlist and the solver seed it is solved with.
type input struct {
	name    string
	netlist []byte
	seed    int64
}

// batch describes a workload that solves a list of netlists in turn, the
// way htpart does.
type batch struct {
	name   string
	inputs []input
	setup  []float64 // seconds per set-up repetition
	solve  func(ctx context.Context, netlist []byte, seed int64) (float64, error)
	traced func(ctx context.Context, c tracedCall, netlist []byte, seed int64, lc *layerCounts) (float64, error)
	// groupSize is how many consecutive inputs make up the unit that wall_s
	// and the per-layer numbers are reported for: 1 (one 65k solve) or 5
	// (one pass over the circuit table).
	groupSize int
}

// units is how many units of unitSeconds fill the window.
func units(cfg config, unitSeconds float64) int {
	return max(1, int(math.Ceil(cfg.window.Seconds()/unitSeconds)))
}

func runML65k(ctx context.Context, cfg config) (*result, error) {
	b := batch{name: "ml65k", solve: solveML, traced: tracedML, groupSize: 1}
	n := units(cfg, mlSolveSeconds)
	for k := 0; k < n; k++ {
		gseed := inputSeed(cfg.seed, k)
		t0 := time.Now()
		var buf bytes.Buffer
		if err := circuits.Stream(circuits.Scaled(65536), gseed, &buf); err != nil {
			return nil, err
		}
		b.setup = append(b.setup, time.Since(t0).Seconds())
		b.inputs = append(b.inputs, input{name: "synth65536-g" + strconv.FormatInt(gseed, 10),
			netlist: buf.Bytes(), seed: solverSeed})
	}
	return b.run(ctx, cfg)
}

// runISCAS solves the five ISCAS85-class circuits of the paper's tables
// (generator seed 1, as gencircuit writes them) once per pass, each pass
// with the next input seed as its solver seed.
func runISCAS(ctx context.Context, cfg config) (*result, error) {
	b := batch{name: "iscas", solve: solveFlowPlus, traced: tracedFlowPlus, groupSize: len(circuits.ISCAS85)}
	var netlists [][]byte
	for rep := 0; rep < iscasSetupReps; rep++ {
		t0 := time.Now()
		netlists = netlists[:0]
		for _, spec := range circuits.ISCAS85 {
			var buf bytes.Buffer
			if err := circuits.Stream(spec, 1, &buf); err != nil {
				return nil, err
			}
			netlists = append(netlists, buf.Bytes())
		}
		b.setup = append(b.setup, time.Since(t0).Seconds())
	}
	passes := units(cfg, iscasPassSeconds)
	for p := 0; p < passes; p++ {
		seed := inputSeed(cfg.seed, p)
		for i, spec := range circuits.ISCAS85 {
			b.inputs = append(b.inputs, input{name: fmt.Sprintf("%s-s%d", spec.Name, seed),
				netlist: netlists[i], seed: seed})
		}
	}
	return b.run(ctx, cfg)
}

// group is the unit wall_s and the per-layer numbers are reported for.
type group struct {
	untraced time.Duration
	roots    []int // traced root span IDs
	counts   layerCounts
}

// run solves every input once. Untraced it measures the end-to-end
// metrics; traced it solves each input twice, through the public entry
// point and then composed from the layers, and derives the per-layer
// metrics from the spans of the second.
func (b batch) run(ctx context.Context, cfg config) (*result, error) {
	res := newResult()
	res.values["setup_s"] = median(b.setup)
	res.notes["setup_s"] = fmt.Sprintf("median of %d", len(b.setup))
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var jobs, costs []float64
	var groups []*group
	var stale []string
	for i, in := range b.inputs {
		if i%b.groupSize == 0 {
			groups = append(groups, &group{})
		}
		g := groups[len(groups)-1]
		res.attempted++
		t0 := time.Now()
		cost, err := b.solve(ctx, in.netlist, in.seed)
		d := time.Since(t0)
		if err != nil {
			res.fail("%s: %v", in.name, err)
			continue
		}
		res.expect(b.name+"/"+in.name+"/cost", cost)
		costs = append(costs, cost)
		jobs = append(jobs, d.Seconds())
		g.untraced += d
		if tr == nil {
			continue
		}
		var lc layerCounts
		root := tr.begin(in.name, 0, "solve", -1)
		tcost, err := b.traced(ctx, tracedCall{tr: tr, run: in.name, parent: root}, in.netlist, in.seed, &lc)
		tr.end(root)
		if err != nil {
			res.fail("%s traced: %v", in.name, err)
			continue
		}
		if tcost != cost {
			stale = append(stale, fmt.Sprintf("%s: traced %v, untraced %v", in.name, tcost, cost))
		}
		g.roots = append(g.roots, root)
		g.counts.add(lc)
		b.expectCounts(res, in.name, lc)
	}
	if len(jobs) == 0 {
		return res, nil
	}
	var walls []float64
	for _, g := range groups {
		walls = append(walls, g.untraced.Seconds())
	}
	res.values["wall_s"] = median(walls)
	res.notes["wall_s"] = fmt.Sprintf("median of %d", len(walls))
	setJobMetrics(res, jobs)
	res.values["cost_geomean"] = geomean(costs)
	res.notes["cost_geomean"] = fmt.Sprintf("%d results", len(costs))
	if tr != nil {
		res.spans = tr.snapshot()
		layerMetrics(res, res.spans, groups)
		if len(stale) > 0 {
			res.values["trace.stale"] = 1
			res.notes["trace.stale"] = strings.Join(stale, "; ")
		}
	}
	return res, nil
}

// expectCounts pins the deterministic counts of one traced group.
func (b batch) expectCounts(res *result, key string, lc layerCounts) {
	p := b.name + "/" + key + "/"
	res.expect(p+"inject.rounds", float64(lc.rounds))
	res.expect(p+"inject.injections", float64(lc.injections))
	res.expect(p+"flowrefine.pairs", float64(lc.pairs))
	res.expect(p+"flowrefine.accepted", float64(lc.accepted))
	res.expect(p+"multilevel.coarsest_pins", float64(lc.coarsestPins))
	res.expect(p+"htp.builds", float64(lc.builds))
}

// setJobMetrics fills the job latency distribution and rate from per-job
// wall times in seconds.
func setJobMetrics(res *result, jobs []float64) {
	res.values["job_p50_s"] = median(jobs)
	res.notes["job_p50_s"] = fmt.Sprintf("n=%d", len(jobs))
	if p, v, n, ok := tail(jobs); ok {
		res.values["job_p90_s"] = v
		res.notes["job_p90_s"] = fmt.Sprintf("p%d, n=%d", p, n)
	} else {
		res.values["job_p90_s"] = median(jobs)
		res.notes["job_p90_s"] = fmt.Sprintf("median: n=%d leaves no percentile with ten samples beyond it", n)
	}
	var total float64
	for _, j := range jobs {
		total += j
	}
	res.values["jobs_per_s"] = float64(len(jobs)) / total
}

func (lc *layerCounts) add(o layerCounts) {
	lc.levels += o.levels
	lc.coarsestNodes += o.coarsestNodes
	lc.coarsestNets += o.coarsestNets
	lc.coarsestPins += o.coarsestPins
	lc.metrics += o.metrics
	lc.converged += o.converged
	lc.rounds += o.rounds
	lc.injections += o.injections
	lc.treeNets += o.treeNets
	lc.builds += o.builds
	lc.boundaryGain += o.boundaryGain
	lc.hierGain += o.hierGain
	lc.pairs += o.pairs
	lc.accepted += o.accepted
	lc.proposed += o.proposed
	lc.flowGain += o.flowGain
}

// layerMetrics turns the spans and counts of each group into per-layer
// values and reports the median over groups. A layer's time is the summed
// self time of its spans; what the layer spans leave of the traced wall is
// trace.unaccounted_ms.
func layerMetrics(res *result, spans []span, groups []*group) {
	self := selfTimes(spans)
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	kids := map[int][]span{}
	for _, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	per := map[string][]float64{}
	for _, g := range groups {
		if len(g.roots) == 0 {
			continue
		}
		v := map[string]float64{}
		var traced time.Duration
		for _, r := range g.roots {
			traced += byID[r].dur()
			var layers time.Duration
			for _, s := range kids[r] {
				ms := float64(self[s.ID]) / 1e6
				layers += self[s.ID]
				v[s.Name+"_ms"] += ms
				if s.Name == "fm.boundary" {
					v[boundaryLevelMetric(s.Level)] += ms
				}
			}
			v["trace.unaccounted_ms"] += float64(byID[r].dur()-layers) / 1e6
		}
		lc := g.counts
		v["trace.wall_ms"] = float64(traced) / 1e6
		v["trace.untraced_wall_ms"] = float64(g.untraced) / 1e6
		v["trace.overhead_ms"] = float64(traced-g.untraced) / 1e6
		v["multilevel.levels"] = float64(lc.levels)
		v["multilevel.coarsest_nodes"] = float64(lc.coarsestNodes)
		v["multilevel.coarsest_nets"] = float64(lc.coarsestNets)
		v["multilevel.coarsest_pins"] = float64(lc.coarsestPins)
		v["inject.rounds"] = float64(lc.rounds)
		v["inject.injections"] = float64(lc.injections)
		v["inject.tree_nets"] = float64(lc.treeNets)
		if lc.metrics > 0 {
			v["inject.converged"] = float64(lc.converged) / float64(lc.metrics)
		}
		v["htp.builds"] = float64(lc.builds)
		v["fm.boundary_gain"] = lc.boundaryGain
		v["fm.hier_gain"] = lc.hierGain
		v["flowrefine.pairs"] = float64(lc.pairs)
		v["flowrefine.accepted"] = float64(lc.accepted)
		if lc.proposed > 0 {
			v["flowrefine.accept_ratio"] = float64(lc.accepted) / float64(lc.proposed)
		}
		v["flowrefine.gain"] = lc.flowGain
		for _, m := range catalog {
			if !m.endToEnd {
				per[m.name] = append(per[m.name], v[m.name])
			}
		}
	}
	for name, xs := range per {
		res.values[name] = median(xs)
		res.notes[name] = fmt.Sprintf("median of %d", len(xs))
	}
}
