package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"sync"
	"testing"
	"time"

	"repro/internal/circuits"
	"repro/internal/server"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range catalog {
		if !nameRE.MatchString(m.name) {
			t.Errorf("metric name %q does not match %s", m.name, nameRE)
		}
		if !unitRE.MatchString(m.unit) {
			t.Errorf("metric %s: unit %q does not match %s", m.name, m.unit, unitRE)
		}
		if m.better != "lower" && m.better != "higher" {
			t.Errorf("metric %s: better = %q", m.name, m.better)
		}
		if seen[m.name] {
			t.Errorf("metric %s listed twice", m.name)
		}
		seen[m.name] = true
	}
}

// TestCatalogMatchesBenchmarkJSON keeps the metrics the command prints and
// the definition at the repository root in step.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit, Better string }
	var bench struct {
		EndToEnd []def `json:"end_to_end"`
		PerLayer []def `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	var e2e, layer []def
	for _, m := range catalog {
		d := def{m.name, m.unit, m.better}
		if m.endToEnd {
			e2e = append(e2e, d)
		} else {
			layer = append(layer, d)
		}
	}
	if fmt.Sprint(e2e) != fmt.Sprint(bench.EndToEnd) {
		t.Errorf("end_to_end:\n catalog        %v\n BENCHMARK.json %v", e2e, bench.EndToEnd)
	}
	if fmt.Sprint(layer) != fmt.Sprint(bench.PerLayer) {
		t.Errorf("per_layer:\n catalog        %v\n BENCHMARK.json %v", layer, bench.PerLayer)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, n := range []int{0, 1, 10, 11, 12, 25, 99, 100, 101, 200, 1000} {
		xs := make([]float64, n)
		for i := range xs {
			xs[(i*7919)%n] = float64(i) // distinct values, shuffled
		}
		p, v, got, ok := tail(xs)
		if got != n {
			t.Errorf("n=%d: reported sample count %d", n, got)
		}
		if n < 11 {
			if ok {
				t.Errorf("n=%d: got p%d, want no percentile with ten samples beyond it", n, p)
			}
			continue
		}
		if !ok || p < 1 || p > tailCap {
			t.Fatalf("n=%d: p=%d ok=%v", n, p, ok)
		}
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond < 10 {
			t.Errorf("n=%d: p%d = %v has %d samples beyond it, want >= 10", n, p, v, beyond)
		}
		// The next percentile up must leave fewer than ten beyond, unless
		// the cap stopped the search.
		if p < tailCap {
			r := ((p+1)*n + 99) / 100
			if n-r >= 10 {
				t.Errorf("n=%d: p%d is not the highest; p%d still leaves %d beyond", n, p, p+1, n-r)
			}
		}
	}
	if _, v, _, _ := tail([]float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20}); v != 10 {
		t.Errorf("n=20: p50 = %v, want 10 (the 10th smallest)", v)
	}
}

func TestMedianAndGeomean(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
	if g := geomean([]float64{2, 8}); g < 3.999999 || g > 4.000001 {
		t.Errorf("geomean = %v", g)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 10},
		{ID: 2, Parent: 1, Start: 1, End: 3},
		{ID: 3, Parent: 1, Start: 2, End: 5}, // overlaps its sibling
		{ID: 4, Parent: 3, Start: 2, End: 4},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: 6, 2: 2, 3: 1, 4: 2}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self %v, want %v", id, self[id], w)
		}
	}
}

// TestTracedCompositionReproducesC1355 is the fast guard on the per-layer
// numbers: the traced pipelines, built from the layers' public functions,
// must certify the same cost as the public entry points they stand for.
func TestTracedCompositionReproducesC1355(t *testing.T) {
	spec, err := circuits.ByName("c1355")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := circuits.Stream(spec, 1, &buf); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, tc := range []struct {
		name   string
		solve  func(context.Context, []byte, int64) (float64, error)
		traced func(context.Context, tracedCall, []byte, int64, *layerCounts) (float64, error)
	}{
		{"multilevel", solveML, tracedML},
		{"flow+", solveFlowPlus, tracedFlowPlus},
	} {
		want, err := tc.solve(ctx, buf.Bytes(), 1)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		tr := newTracer()
		var lc layerCounts
		root := tr.begin("test", 0, "solve", -1)
		got, err := tc.traced(ctx, tracedCall{tr: tr, run: "test", parent: root}, buf.Bytes(), 1, &lc)
		tr.end(root)
		if err != nil {
			t.Fatalf("%s traced: %v", tc.name, err)
		}
		if got != want {
			t.Errorf("%s: traced composition costs %v, public entry point %v", tc.name, got, want)
		}
		if lc.metrics == 0 || lc.builds == 0 || len(tr.snapshot()) < 5 {
			t.Errorf("%s: traced run recorded too little: %+v, %d spans", tc.name, lc, len(tr.snapshot()))
		}
	}
}

// TestLoadGeneratorConnections drives a stub job API and checks that the
// clients never open more connections than nproc, however long the stream.
func TestLoadGeneratorConnections(t *testing.T) {
	var (
		mu            sync.Mutex
		open, peak    int
		opened, jobID int
	)
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		jobID++
		id := jobID
		mu.Unlock()
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintf(w, `{"id":"j-%d"}`, id)
	})
	mux.HandleFunc("GET /jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		for i := 0; i < 3; i++ {
			fmt.Fprintf(w, "event: round\ndata: {}\n\n")
			w.(http.Flusher).Flush()
			time.Sleep(time.Millisecond)
		}
	})
	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		now := time.Now()
		_ = json.NewEncoder(w).Encode(server.StatusView{ID: r.PathValue("id"), State: server.StateDone,
			Verified: true, Cost: 1, SubmittedAt: now, StartedAt: &now, FinishedAt: &now})
	})
	mux.HandleFunc("GET /jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{}`)
	})
	ts := httptest.NewUnstartedServer(mux)
	ts.Config.ConnState = func(c net.Conn, s http.ConnState) {
		mu.Lock()
		defer mu.Unlock()
		switch s {
		case http.StateNew:
			opened++
			open++
			peak = max(peak, open)
		case http.StateClosed, http.StateHijacked:
			open--
		}
	}
	ts.Start()
	defer ts.Close()

	client := newClient(numClients())
	defer client.CloseIdleConnections()
	in := &htpdInputs{bodies: [][]byte{[]byte(`{}`)}, keys: []string{"stub/seed1"}}
	recs, _ := stream(context.Background(), ts.URL, client, in, 60, nil)
	if len(recs) < 60 {
		t.Fatalf("stream ran %d jobs, want >= 60", len(recs))
	}
	for _, r := range recs {
		if r.err != nil {
			t.Fatalf("job failed: %v", r.err)
		}
		if r.events != 3 {
			t.Fatalf("job saw %d events, want 3", r.events)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if n := numClients(); peak > n || opened > n {
		t.Errorf("load generator opened %d connections (peak %d open), want at most nproc-bounded %d", opened, peak, n)
	}
}
