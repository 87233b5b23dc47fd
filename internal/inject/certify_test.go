package inject

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/circuits"
	"repro/internal/hierarchy"
	"repro/internal/hypergraph"
	"repro/internal/multilevel"
	"repro/internal/obs"
	"repro/internal/shortest"
)

// sameAsExact runs the sequential metric with the retire certificate and
// with exact growths alone and fails unless D, the flow and every Stats
// field but the certificate counters are bit-identical. It returns the
// certificate run's stats.
func sameAsExact(t *testing.T, name string, h *hypergraph.Hypergraph, spec hierarchy.Spec, opt Options, seed int64) Stats {
	t.Helper()
	run := func(certify bool) *engine {
		o := opt
		o.Rng = rand.New(rand.NewSource(seed))
		g, err := computeMetric(context.Background(), h, spec, o, certify)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return g
	}
	got, want := run(true), run(false)
	for e := range want.m.D {
		if math.Float64bits(got.m.D[e]) != math.Float64bits(want.m.D[e]) ||
			math.Float64bits(got.flow[e]) != math.Float64bits(want.flow[e]) {
			t.Fatalf("%s: net %d has d=%v f=%v with the certificate, d=%v f=%v without",
				name, e, got.m.D[e], got.flow[e], want.m.D[e], want.flow[e])
		}
	}
	st := got.st
	if want.st.Certified != 0 || want.st.CertifyMisses != 0 {
		t.Fatalf("%s: exact-only run reports certificate counts %+v", name, want.st)
	}
	st.Certified, st.CertifyMisses = 0, 0
	if st != want.st {
		t.Fatalf("%s: stats %+v with the certificate, %+v without", name, got.st, want.st)
	}
	return got.st
}

// TestCertificateMatchesExactOnISCAS compares the certificate-on sweep with
// the exact-only sweep on the five ISCAS85-class circuits under the
// benchmark's spec, and checks that the certificate carries most retires.
func TestCertificateMatchesExactOnISCAS(t *testing.T) {
	for i, c := range circuits.ISCAS85 {
		if testing.Short() && c.Gates > 1500 {
			continue
		}
		h := circuits.Generate(c, 1)
		spec, err := hierarchy.BinaryTreeSpec(h.TotalSize(), 4, hierarchy.GeometricWeights(4, 2), 1.1)
		if err != nil {
			t.Fatal(err)
		}
		st := sameAsExact(t, c.Name, h, spec, Options{}, int64(100+i))
		// Roots flooded at least once retire on the exact growth; at least
		// half of the others must retire on the certificate.
		if 2*st.Certified < h.NumNodes()-st.Injections {
			t.Errorf("%s: certificate retired %d of %d roots (%d injections, %d misses)",
				c.Name, st.Certified, h.NumNodes(), st.Injections, st.CertifyMisses)
		}
	}
}

// metricDoneLog keeps the last metric-done event it observes.
type metricDoneLog struct{ done obs.Event }

func (l *metricDoneLog) Event(e obs.Event) {
	if e.Kind == obs.KindMetricDone {
		l.done = e
	}
}

// TestMetricDoneReportsCertificateCounts checks that the metric-done event
// carries the certificate counters of the returned Stats.
func TestMetricDoneReportsCertificateCounts(t *testing.T) {
	h := circuits.Generate(circuits.ISCAS85[0], 1)
	spec := specFor(h, 4)
	var log metricDoneLog
	_, st, err := ComputeMetricCtx(context.Background(), h, spec, Options{Observer: &log})
	if err != nil {
		t.Fatal(err)
	}
	if st.Certified == 0 || log.done.Certified != st.Certified || log.done.CertifyMisses != st.CertifyMisses {
		t.Fatalf("metric-done reports certified=%d misses=%d, stats %+v",
			log.done.Certified, log.done.CertifyMisses, st)
	}
}

// TestCertificateMatchesExactOnCoarseLevel covers weighted nodes and summed
// net capacities on multilevel levels: an intermediate level where the
// certificate retires most roots, and a coarsest level under the coarse
// stage's round budget, where every root violates and the gate keeps the
// wasted attempts to one per metric.
func TestCertificateMatchesExactOnCoarseLevel(t *testing.T) {
	for _, tc := range []struct {
		gates, target int
		opt           Options
		certifies     bool
	}{
		{4096, 1500, Options{}, true},
		{2048, 300, Options{MaxRounds: 24}, false},
	} {
		h := circuits.Generate(circuits.Scaled(tc.gates), 1)
		spec, err := hierarchy.BinaryTreeSpec(h.TotalSize(), 4, hierarchy.GeometricWeights(4, 2), 1.1)
		if err != nil {
			t.Fatal(err)
		}
		s, err := multilevel.Coarsen(context.Background(), h, multilevel.CoarsenOptions{
			TargetNodes: tc.target, MaxClusterSize: (spec.Capacity[0] + 1) / 2, Seed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		ch := s.Coarsest()
		weighted := false
		for v := 0; v < ch.NumNodes(); v++ {
			weighted = weighted || ch.NodeSize(hypergraph.NodeID(v)) > 1
		}
		if !weighted {
			t.Fatalf("n%d level has unit node sizes only", tc.gates)
		}
		for seed := int64(1); seed <= 2; seed++ {
			st := sameAsExact(t, fmt.Sprintf("n%d/%d nodes", tc.gates, ch.NumNodes()), ch, spec, tc.opt, seed)
			if tc.certifies && st.Certified < ch.NumNodes()/2 {
				t.Errorf("n%d: certificate retired %d of %d roots", tc.gates, st.Certified, ch.NumNodes())
			}
			if !tc.certifies && st.Certified+st.CertifyMisses > 1 {
				t.Errorf("n%d: %d certificate attempts where every root violates", tc.gates, st.Certified+st.CertifyMisses)
			}
		}
	}
}

// TestCertificateMatchesExactOnEdgeCases covers the inputs where tie order
// and the bound tests are most delicate: zero-capacity nets (constant
// maximal length), disconnected components, all-equal lengths with
// maximal ties, weighted nodes, and a non-binary spec (on an ISCAS85-class
// circuit and on the torus).
func TestCertificateMatchesExactOnEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(5))

	// Zero-capacity nets sprinkled over a clustered graph.
	b := hypergraph.NewBuilder()
	b.AddUnitNodes(400)
	for e := 0; e < 1200; e++ {
		u, v := rng.Intn(400), rng.Intn(400)
		if u != v {
			c := 1.0
			if e%5 == 0 {
				c = 0
			}
			b.AddNet("", c, hypergraph.NodeID(u), hypergraph.NodeID(v))
		}
	}
	zero := b.MustBuild()

	// Three disconnected clusters of different sizes.
	b = hypergraph.NewBuilder()
	b.AddUnitNodes(600)
	for _, r := range [][2]int{{0, 100}, {100, 300}, {300, 600}} {
		for e := 0; e < 3*(r[1]-r[0]); e++ {
			u, v := r[0]+rng.Intn(r[1]-r[0]), r[0]+rng.Intn(r[1]-r[0])
			if u != v {
				b.AddNet("", 1, hypergraph.NodeID(u), hypergraph.NodeID(v))
			}
		}
	}
	split := b.MustBuild()

	// A torus with unit capacities: every length is equal until the first
	// injection, and every node has many equidistant neighbours.
	b = hypergraph.NewBuilder()
	const side = 20
	b.AddUnitNodes(side * side)
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			v := hypergraph.NodeID(r*side + c)
			b.AddNet("", 1, v, hypergraph.NodeID(r*side+(c+1)%side))
			b.AddNet("", 1, v, hypergraph.NodeID(((r+1)%side)*side+c))
		}
	}
	torus := b.MustBuild()

	// Weighted nodes with multi-pin nets and mixed capacities.
	b = hypergraph.NewBuilder()
	for v := 0; v < 400; v++ {
		b.AddNode("", int64(1+rng.Intn(4)))
	}
	for e := 0; e < 900; e++ {
		pins := distinctPins(rng, 400, 2+rng.Intn(3))
		b.AddNet("", float64(1+rng.Intn(3)), pins...)
	}
	weighted := b.MustBuild()

	iscas := circuits.Generate(circuits.ISCAS85[1], 1)
	nonBinary := func(h *hypergraph.Hypergraph) hierarchy.Spec {
		total := h.TotalSize()
		return hierarchy.Spec{
			Capacity: []int64{(total + 7) / 8, (total + 1) / 2},
			Weight:   []float64{3, 1},
			Branch:   []int{4, 2},
		}
	}
	for _, tc := range []struct {
		name string
		h    *hypergraph.Hypergraph
		spec hierarchy.Spec
	}{
		{"zero-capacity", zero, specFor(zero, 3)},
		{"disconnected", split, specFor(split, 3)},
		{"torus", torus, specFor(torus, 3)},
		{"weighted", weighted, specFor(weighted, 2)},
		{"non-binary", iscas, nonBinary(iscas)},
		{"non-binary-torus", torus, nonBinary(torus)},
	} {
		var certified int
		for seed := int64(1); seed <= 4; seed++ {
			certified += sameAsExact(t, tc.name, tc.h, tc.spec, Options{}, seed).Certified
		}
		if certified == 0 {
			t.Errorf("%s: the certificate never retired a root", tc.name)
		}
	}
}

// randomInstance draws a random hypergraph of n nodes with two- and
// three-pin nets, unit or mixed node sizes.
func randomInstance(rng *rand.Rand, n int, weighted bool) *hypergraph.Hypergraph {
	b := hypergraph.NewBuilder()
	for v := 0; v < n; v++ {
		size := int64(1)
		if weighted {
			size += int64(rng.Intn(3))
		}
		b.AddNode("", size)
	}
	for e := 0; e < 2*n; e++ {
		b.AddNet("", float64(1+rng.Intn(2)), distinctPins(rng, n, 2+rng.Intn(2))...)
	}
	return b.MustBuild()
}

// retireSound overwrites the lengths of h's metric with a random state —
// a small palette (many ties) times a scale drawn across the range where
// violations start — and fails if the certificate retires any root whose
// exact growth is violated. It returns how many roots the certificate
// retired and how many exact growths were violated.
func retireSound(t *testing.T, rng *rand.Rand, h *hypergraph.Hypergraph, spec hierarchy.Spec) (certified, violated int) {
	t.Helper()
	g, err := computeMetric(context.Background(), h, spec, Options{MaxRounds: 1}, true)
	if err != nil {
		t.Fatal(err)
	}
	palette := []float64{0.5, 1, 1, 2, 3}
	scale := math.Exp(rng.Float64()*6 - 3)
	for e := range g.m.D {
		g.m.D[e] = scale * palette[rng.Intn(len(palette))]
	}
	spt := shortest.NewHyperSPT(h)
	inTree := make([]bool, h.NumNets())
	visits := 0
	for v := 0; v < h.NumNodes(); v++ {
		root := hypergraph.NodeID(v)
		retire := g.certifyRetire(spt, root, &visits)
		_, viol := g.growExact(spt, root, &visits, nil, inTree)
		if retire && viol {
			t.Fatalf("root %d: certificate retired a violated root (length scale %g)", v, scale)
		}
		if retire {
			certified++
		}
		if viol {
			violated++
		}
	}
	return certified, violated
}

// TestCertificateRetireIsSound checks the certificate against the exact
// growth on random length states: whenever the certificate retires a root,
// the exact growth from that root must not be violated. Both outcomes must
// occur, so the check is not vacuous.
func TestCertificateRetireIsSound(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var certified, violated int
	for trial := 0; trial < 60; trial++ {
		h := randomInstance(rng, 20+rng.Intn(60), trial%2 == 1)
		c, v := retireSound(t, rng, h, specFor(h, 1+trial%3))
		certified += c
		violated += v
	}
	if certified == 0 || violated == 0 {
		t.Fatalf("random states produced %d certified and %d violated roots; both must occur", certified, violated)
	}
}

// FuzzCertificateMatchesExact is the differential check as a fuzz target:
// on a random instance the certificate-on sweep must match the exact-only
// sweep bit for bit, and on a random length state the certificate must
// never retire a violated root.
func FuzzCertificateMatchesExact(f *testing.F) {
	f.Add(int64(1), uint16(40), false, uint8(2))
	f.Add(int64(2), uint16(300), true, uint8(3))
	f.Add(int64(3), uint16(600), false, uint8(4))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, weighted bool, height uint8) {
		rng := rand.New(rand.NewSource(seed))
		h := randomInstance(rng, 8+int(n%600), weighted)
		spec := specFor(h, 1+int(height%4))
		for v := 0; v < h.NumNodes(); v++ {
			if h.NodeSize(hypergraph.NodeID(v)) > spec.Capacity[0] {
				t.Skip("a node exceeds the leaf capacity: no metric exists")
			}
		}
		sameAsExact(t, "fuzz", h, spec, Options{}, seed)
		retireSound(t, rng, h, spec)
	})
}

// distinctPins draws k distinct nodes of n.
func distinctPins(rng *rand.Rand, n, k int) []hypergraph.NodeID {
	pins := make([]hypergraph.NodeID, 0, k)
	for _, v := range rng.Perm(n)[:k] {
		pins = append(pins, hypergraph.NodeID(v))
	}
	return pins
}
