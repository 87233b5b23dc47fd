package htp

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/hierarchy"
	"repro/internal/hypergraph"
	"repro/internal/inject"
)

// replayMetricStats re-derives the per-iteration inject seeds exactly as
// FlowCtx pre-draws them (one inject seed, then PartitionsPerMetric build
// seeds, per iteration), runs each metric standalone, and folds the stats
// the way Result.MetricStats documents: sums for Rounds/Injections/
// TreeNets/Certified/CertifyMisses, max for MaxFlow, AND for Converged.
func replayMetricStats(t *testing.T, h *hypergraph.Hypergraph, spec hierarchy.Spec, opt FlowOptions) inject.Stats {
	t.Helper()
	opt = opt.withDefaults()
	rng := rand.New(rand.NewSource(opt.Seed))
	want := inject.Stats{Converged: true}
	for i := 0; i < opt.Iterations; i++ {
		injSeed := rng.Int63()
		for c := 0; c < opt.PartitionsPerMetric; c++ {
			rng.Int63() // build seed, unused here
		}
		injOpt := opt.Inject
		injOpt.Rng = rand.New(rand.NewSource(injSeed))
		_, st, err := inject.ComputeMetricCtx(context.Background(), h, spec, injOpt)
		if err != nil {
			t.Fatal(err)
		}
		want.Rounds += st.Rounds
		want.Injections += st.Injections
		want.TreeNets += st.TreeNets
		want.Certified += st.Certified
		want.CertifyMisses += st.CertifyMisses
		want.Converged = want.Converged && st.Converged
		if st.MaxFlow > want.MaxFlow {
			want.MaxFlow = st.MaxFlow
		}
	}
	return want
}

func TestMetricStatsAggregatesAcrossIterations(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	h := fourClusters(t, rng, 4, 8, 0.5)
	spec := binarySpec(t, h, 3)

	opt := FlowOptions{Iterations: 3, Seed: 5}
	res, err := FlowCtx(context.Background(), h, spec, opt)
	if err != nil {
		t.Fatal(err)
	}
	want := replayMetricStats(t, h, spec, opt)
	if res.MetricStats != want {
		t.Fatalf("MetricStats = %+v, want per-iteration fold %+v", res.MetricStats, want)
	}
	if !res.MetricStats.Converged {
		t.Fatalf("full run should converge: %+v", res.MetricStats)
	}
}

func TestMetricStatsConvergedIsANDAcrossIterations(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	h := fourClusters(t, rng, 4, 8, 0.5)
	spec := binarySpec(t, h, 3)

	// MaxRounds 2 stops every metric early: all sums must still match the
	// standalone replays and the AND must come out false.
	opt := FlowOptions{Iterations: 2, Seed: 9, Inject: inject.Options{MaxRounds: 2}}
	res, err := FlowCtx(context.Background(), h, spec, opt)
	if err != nil {
		t.Fatal(err)
	}
	want := replayMetricStats(t, h, spec, opt)
	if res.MetricStats != want {
		t.Fatalf("MetricStats = %+v, want %+v", res.MetricStats, want)
	}
	if res.MetricStats.Converged {
		t.Fatalf("truncated metrics cannot converge: %+v", res.MetricStats)
	}
	if res.Stop != "max-rounds" {
		t.Fatalf("Stop = %q, want max-rounds", res.Stop)
	}
}
