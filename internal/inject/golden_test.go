package inject

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/circuits"
	"repro/internal/hierarchy"
	"repro/internal/multilevel"
)

// TestCoarsestLevelMetricGoldenHash pins the spreading metric on multilevel
// coarsest levels with the coarse stage's 24-round budget, in both engines.
// On n8192 coarsened with the V-cycle's own cluster cap (348 nodes, 2161
// nets) every tree growth reaches every node long before it stops, and
// most pin scans that follow offer no shorter distance — exactly where
// HyperSPT skips them. The n2048 level (at most 300 nodes, sparser) skips
// rarely. The hashes were captured before the skip existed; the metrics
// must stay bit-identical.
func TestCoarsestLevelMetricGoldenHash(t *testing.T) {
	cases := []struct {
		gates      int
		maxCluster func(total, c0 int64) int64
		maxNodes   int
		want       [2]uint64 // workers 1, 2
		injections [2]int
	}{
		{2048, func(_, c0 int64) int64 { return (c0 + 1) / 2 }, 300,
			[2]uint64{0xc1ad27185a387e53, 0x24c3aed4821b48d4}, [2]int{1335, 1441}},
		{8192, func(total, c0 int64) int64 { return min(total/300, (c0+1)/2) }, 400,
			[2]uint64{0x633ab5c9b594faee, 0x71676f0779a8a7db}, [2]int{2517, 2697}},
	}
	for _, tc := range cases {
		h := circuits.Generate(circuits.Scaled(tc.gates), 1)
		spec, err := hierarchy.BinaryTreeSpec(h.TotalSize(), 4, hierarchy.GeometricWeights(4, 2), 1.1)
		if err != nil {
			t.Fatal(err)
		}
		s, err := multilevel.Coarsen(context.Background(), h, multilevel.CoarsenOptions{
			TargetNodes: 300, MaxClusterSize: tc.maxCluster(h.TotalSize(), spec.Capacity[0]), Seed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		ch := s.Coarsest()
		if ch.NumNodes() > tc.maxNodes || len(s.Levels) == 0 {
			t.Fatalf("n%d: coarsest level has %d nodes after %d levels", tc.gates, ch.NumNodes(), len(s.Levels))
		}
		for i, workers := range []int{1, 2} {
			m, st, err := ComputeMetric(ch, spec, Options{
				Rng:       rand.New(rand.NewSource(1)),
				MaxRounds: 24,
				Workers:   workers,
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := metricHash(m); got != tc.want[i] || st.Injections != tc.injections[i] {
				t.Errorf("n%d workers=%d: metric hash %#016x with %d injections, want %#016x with %d",
					tc.gates, workers, got, st.Injections, tc.want[i], tc.injections[i])
			}
		}
	}
}
