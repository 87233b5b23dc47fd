package multilevel_test

import (
	"context"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"repro/internal/circuits"
	"repro/internal/fm"
	"repro/internal/hierarchy"
	"repro/internal/htp"
	"repro/internal/multilevel"
)

// leafHash fingerprints a partition's assignment.
func leafHash(p *hierarchy.Partition) uint64 {
	fh := fnv.New64a()
	var b [4]byte
	for _, leaf := range p.LeafOf {
		for i := range b {
			b[i] = byte(uint32(leaf) >> (8 * i))
		}
		fh.Write(b[:])
	}
	return fh.Sum64()
}

// TestRefineBoundaryGoldenHash pins boundary FM on the n16384 synthetic: an
// RFM partition of the coarsest level is projected straight down to the
// fine graph, and one RefineBoundaryCtx run repairs it. The projected
// boundary is large, so thousands of CostState deltas and moves decide the
// outcome; the hash was captured before CostState dropped its per-net maps,
// and the assignment and cost must reproduce bit for bit.
func TestRefineBoundaryGoldenHash(t *testing.T) {
	if testing.Short() {
		t.Skip("refines a 16384-gate instance; not a -short test")
	}
	const (
		wantHash uint64 = 0x329c2460a0370964
		wantCost uint64 = 0x40f40ac000000000 // 82092
	)
	h := circuits.Generate(circuits.Scaled(16384), 1)
	spec, err := hierarchy.BinaryTreeSpec(h.TotalSize(), 4, hierarchy.GeometricWeights(4, 2), 1.1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := multilevel.Coarsen(context.Background(), h, multilevel.CoarsenOptions{
		TargetNodes: 300, MaxClusterSize: (spec.Capacity[0] + 1) / 2, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := htp.RFM(s.Coarsest(), spec, htp.RFMOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	p := res.Partition
	for i := len(s.Levels) - 1; i >= 0; i-- {
		if p, err = s.Project(i, p); err != nil {
			t.Fatal(err)
		}
	}
	cost, gain := fm.RefineBoundaryCtx(context.Background(), p, fm.BoundaryOptions{
		Rng: rand.New(rand.NewSource(5)),
	})
	if gain <= 0 {
		t.Fatalf("refinement found no gain on a projected partition (cost %g)", cost)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if got, gotCost := leafHash(p), math.Float64bits(cost); got != wantHash || gotCost != wantCost {
		t.Errorf("assignment hash %#016x cost bits %#016x (%g), want %#016x / %#016x",
			got, gotCost, cost, wantHash, wantCost)
	}
}
