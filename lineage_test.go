// Facade tests for the related-formulation APIs (ratio cut and fixed-tree
// mapping) and the parallel FLOW switch.
package repro_test

import (
	"math"
	"runtime"
	"testing"

	"repro"
)

func TestRatioCutFacade(t *testing.T) {
	b := repro.NewNetlistBuilder()
	for i := 0; i < 10; i++ {
		b.AddNode("", 1)
	}
	for c := 0; c < 2; c++ {
		base := repro.NodeID(c * 5)
		for i := repro.NodeID(0); i < 5; i++ {
			for j := i + 1; j < 5; j++ {
				b.AddNet("", 1, base+i, base+j)
			}
		}
	}
	b.AddNet("bridge", 1, 0, 5)
	h, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res := repro.RatioCut(h, repro.RatioCutOptions{})
	if res.Cut != 1 {
		t.Fatalf("cut = %g, want the bridge", res.Cut)
	}
	if math.Abs(res.Ratio-1.0/25) > 1e-12 {
		t.Fatalf("ratio = %g", res.Ratio)
	}
}

func TestMapOntoTreeFacade(t *testing.T) {
	h := smallCircuit(t)
	per := h.TotalSize()/4 + 8
	ht := repro.NewHostTree([]int64{per, per, per, per})
	ht.AddEdge(0, 1, 1)
	ht.AddEdge(1, 2, 1)
	ht.AddEdge(2, 3, 1)
	m, err := repro.MapOntoTree(h, ht, repro.TreeMapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.Cost() <= 0 {
		t.Fatalf("mapping cost = %g; a connected design must route something", m.Cost())
	}
}

// TestParallelFlowFacade: through the facade, FLOW's iteration pool gives
// bit-identical results at GOMAXPROCS 1 (a pool of one), 2 and 8.
func TestParallelFlowFacade(t *testing.T) {
	h := smallCircuit(t)
	spec, err := repro.BinaryTreeSpec(h.TotalSize(), 3, repro.GeometricWeights(3, 2), 1.15)
	if err != nil {
		t.Fatal(err)
	}
	var seq *repro.Result
	for _, p := range []int{1, 2, 8} {
		prev := runtime.GOMAXPROCS(p)
		res, err := repro.Flow(h, spec, repro.FlowOptions{Iterations: 3, Seed: 21})
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		if seq == nil {
			seq = res
			continue
		}
		if res.Cost != seq.Cost || res.MetricStats != seq.MetricStats {
			t.Fatalf("GOMAXPROCS %d: cost %g, stats %+v; GOMAXPROCS 1: cost %g, stats %+v",
				p, res.Cost, res.MetricStats, seq.Cost, seq.MetricStats)
		}
		for v := range seq.Partition.LeafOf {
			if res.Partition.LeafOf[v] != seq.Partition.LeafOf[v] {
				t.Fatalf("GOMAXPROCS %d: leaf assignment diverges at node %d", p, v)
			}
		}
	}
}
