package htp

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/hierarchy"
	"repro/internal/hypergraph"
	"repro/internal/inject"
)

// scheduleProcs are the GOMAXPROCS values the schedule-independence tests
// compare: a pool of one (the sequential schedule), a small pool, and a
// pool wider than the host.
var scheduleProcs = []int{1, 2, 8}

// atProcs runs f with GOMAXPROCS set to p, restoring the previous value.
func atProcs(p int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(p))
	f()
}

// requireSameResult fails unless got is bit-identical to want: cost,
// every leaf assignment, the aggregated metric stats and the iteration
// count.
func requireSameResult(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if got.Cost != want.Cost {
		t.Fatalf("%s: cost %g != %g", label, got.Cost, want.Cost)
	}
	for v := range want.Partition.LeafOf {
		if got.Partition.LeafOf[v] != want.Partition.LeafOf[v] {
			t.Fatalf("%s: leaf assignment diverges at node %d", label, v)
		}
	}
	if got.MetricStats != want.MetricStats {
		t.Fatalf("%s: stats %+v != %+v", label, got.MetricStats, want.MetricStats)
	}
	if got.Iterations != want.Iterations {
		t.Fatalf("%s: iterations %d != %d", label, got.Iterations, want.Iterations)
	}
}

// TestParallelFlowMatchesSequential: per-iteration seeds are pre-drawn and
// outcomes aggregated in iteration order, so a pool of one (GOMAXPROCS 1)
// and wider pools give bit-identical results.
func TestParallelFlowMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	h := fourClusters(t, rng, 4, 5, 0.7)
	spec := binarySpec(t, h, 2)
	for _, inj := range []inject.Options{{}, {Workers: 2}} {
		opt := FlowOptions{Iterations: 4, PartitionsPerMetric: 2, Seed: 99, Inject: inj}
		var seq *Result
		for _, p := range scheduleProcs {
			var res *Result
			var err error
			atProcs(p, func() { res, err = Flow(h, spec, opt) })
			if err != nil {
				t.Fatal(err)
			}
			if seq == nil {
				seq = res
				continue
			}
			requireSameResult(t, fmt.Sprintf("GOMAXPROCS %d", p), seq, res)
		}
	}
}

func TestParallelFlowPropagatesFatalErrors(t *testing.T) {
	// An oversized node makes the metric computation fail in every
	// iteration; the error must surface, not be swallowed.
	b := hypergraph.NewBuilder()
	b.AddNode("big", 5)
	b.AddNode("", 1)
	b.AddNet("", 1, 0, 1)
	h := b.MustBuild()
	spec := hierarchy.Spec{Capacity: []int64{2, 6}, Weight: []float64{1, 1}, Branch: []int{2, 2}}
	for _, p := range scheduleProcs {
		var err error
		atProcs(p, func() { _, err = Flow(h, spec, FlowOptions{Iterations: 3}) })
		if err == nil {
			t.Fatalf("GOMAXPROCS %d: expected error for oversized node", p)
		}
	}
}

// TestFlowPoolBoundsIterationsInFlight: iterations never run more than the
// pool size at once, so peak memory is bounded by the pool, not by N. The
// fault seam holds each iteration briefly at its start, long enough for an
// unbounded fan-out to pile all N up.
func TestFlowPoolBoundsIterationsInFlight(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	h := fourClusters(t, rng, 4, 3, 0.8)
	spec := binarySpec(t, h, 2)
	cases := []struct{ procs, injectWorkers, n, want int }{
		{1, 0, 64, 1},
		{2, 1, 64, 2},
		{8, 0, 64, 8},
		{8, 2, 64, 4},
		{8, 16, 64, 1},
		{8, 0, 3, 3},
	}
	for _, c := range cases {
		var inFlight, peak atomic.Int64
		flowIterFault = func(int) {
			n := inFlight.Add(1)
			for m := peak.Load(); n > m; m = peak.Load() {
				if peak.CompareAndSwap(m, n) {
					break
				}
			}
			time.Sleep(200 * time.Microsecond)
			inFlight.Add(-1)
		}
		var size int
		var err error
		atProcs(c.procs, func() {
			size = flowPoolSize(c.n, c.injectWorkers)
			_, err = FlowCtx(context.Background(), h, spec,
				FlowOptions{Iterations: c.n, Inject: inject.Options{Workers: c.injectWorkers}})
		})
		flowIterFault = nil
		if err != nil {
			t.Fatal(err)
		}
		if size != c.want {
			t.Fatalf("%+v: pool size %d", c, size)
		}
		if got := peak.Load(); got < 1 || got > int64(size) {
			t.Fatalf("%+v: %d iterations in flight, pool size %d", c, got, size)
		}
	}
}
