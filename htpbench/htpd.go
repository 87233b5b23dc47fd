package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/circuits"
	"repro/internal/hierarchy"
	"repro/internal/htp"
	"repro/internal/hypergraph"
	"repro/internal/inject"
	"repro/internal/obs"
	"repro/internal/server"
)

const (
	// htpdSetupReps is how often an htpd run sets up (inputs plus a daemon);
	// the median is setup_s.
	htpdSetupReps = 25
	// htpdJobSeeds is how many job seeds a run cycles through, so every
	// (circuit, seed) input repeats within a run and its cost can be checked
	// for determinism.
	htpdJobSeeds = 8
	// htpdJobsPerSecond sizes a stream: ceil(seconds · htpdJobsPerSecond)
	// jobs, about the daemon's throughput on the 2-core reference machine.
	htpdJobsPerSecond = 6
	// htpdMinJobs is the fewest jobs a stream sends: enough for a p90 with
	// ten samples beyond it.
	htpdMinJobs = 100
)

// htpdMix is the circuit of each job in turn. c1355 jobs take about a
// quarter of the time of c2670 jobs, so an even mix would put the median
// latency in the gap between the two modes, where it swings with the
// slowest c1355 and the fastest c2670 job; one c1355 job to two c2670 jobs
// puts it inside the c2670 mode.
var htpdMix = []string{"c1355", "c2670", "c2670"}

// htpdInputs are the encoded job bodies and the parsed circuits the
// benchmark re-certifies results against.
type htpdInputs struct {
	bodies [][]byte // job i sends bodies[i mod len(bodies)]
	keys   []string // circuit/seed of each body
	graphs map[string]*hypergraph.Hypergraph
}

// makeHTPDInputs encodes the job bodies of workload seed s: the circuits of
// the paper's tables (generator seed 1) with its first htpdJobSeeds input
// seeds as job seeds.
func makeHTPDInputs(seed int64) (*htpdInputs, error) {
	in := &htpdInputs{graphs: map[string]*hypergraph.Hypergraph{}}
	netlists := map[string]string{}
	for _, name := range htpdMix {
		if _, ok := netlists[name]; ok {
			continue
		}
		spec, err := circuits.ByName(name)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := circuits.Stream(spec, 1, &buf); err != nil {
			return nil, err
		}
		netlists[name] = buf.String()
		if in.graphs[name], err = hypergraph.ReadFrom(&buf); err != nil {
			return nil, err
		}
	}
	for j := 0; j < htpdJobSeeds; j++ {
		for _, name := range htpdMix {
			jobSeed := inputSeed(seed, j)
			body, err := json.Marshal(server.JobSpec{Netlist: netlists[name], Seed: jobSeed, Label: name})
			if err != nil {
				return nil, err
			}
			in.bodies = append(in.bodies, body)
			in.keys = append(in.keys, fmt.Sprintf("%s/seed%d", name, jobSeed))
		}
	}
	return in, nil
}

// daemon is an in-process htpd behind a loopback HTTP server, with its
// journal and result store in a scratch directory.
type daemon struct {
	dir string
	cfg server.Config
	srv *server.Server
	ts  *httptest.Server
}

func startDaemon(buildDir string, solvers *server.Solvers) (*daemon, error) {
	dir, err := os.MkdirTemp(buildDir, "htpd-")
	if err != nil {
		return nil, err
	}
	cfg := server.Config{Workers: 2, JournalPath: filepath.Join(dir, "journal.jsonl"),
		ResultDir: filepath.Join(dir, "results"), Solvers: solvers}
	if err := os.MkdirAll(cfg.ResultDir, 0o755); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	srv, err := server.New(cfg)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	srv.Start()
	return &daemon{dir: dir, cfg: cfg, srv: srv, ts: httptest.NewServer(srv.Handler())}, nil
}

// stop closes the HTTP server and shuts the daemon down; with restart it
// then times a fresh server.New replaying the journal (terminal jobs come
// back with their result dumps) and returns that time. The scratch
// directory is removed.
func (d *daemon) stop(restart bool) (time.Duration, error) {
	defer os.RemoveAll(d.dir)
	d.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := d.srv.Shutdown(ctx); err != nil {
		return 0, fmt.Errorf("daemon shutdown: %w", err)
	}
	if !restart {
		return 0, nil
	}
	t0 := time.Now()
	again, err := server.New(d.cfg)
	took := time.Since(t0)
	if err != nil {
		return 0, fmt.Errorf("daemon restart: %w", err)
	}
	return took, again.Shutdown(ctx)
}

// jobRecord is what one client saw of one job.
type jobRecord struct {
	key            string
	latency        time.Duration
	submit, result time.Duration
	events         int
	status         server.StatusView
	dump           []byte
	err            error
}

// newClient is the load generator's HTTP client: at most conns connections
// to the daemon, however many requests are in flight.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}}
}

// stream sends jobs to the daemon at baseURL from numClients closed-loop
// clients: each sends its next job only once the previous one is fetched.
// Job i uses body i mod len(bodies). With a tracer, every client call is a
// span under its job's root span.
func stream(ctx context.Context, baseURL string, client *http.Client, in *htpdInputs, jobs int, tr *tracer) ([]jobRecord, time.Duration) {
	var (
		next    atomic.Int64
		mu      sync.Mutex
		records []jobRecord
		wg      sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < numClients(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= jobs {
					return
				}
				k := i % len(in.bodies)
				rec := runJob(ctx, baseURL, client, in.bodies[k], tr, fmt.Sprintf("job%d", i))
				rec.key = in.keys[k]
				mu.Lock()
				records = append(records, rec)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return records, time.Since(start)
}

// runJob is one job's round trip: POST /jobs, the SSE stream until it
// closes, GET status (must be done and verified), GET result.
func runJob(ctx context.Context, baseURL string, client *http.Client, body []byte, tr *tracer, run string) (rec jobRecord) {
	root := tr.begin(run, 0, "job", -1)
	defer tr.end(root)
	t0 := time.Now()
	call := func(name string, f func() error) error {
		id := tr.begin(run, root, name, -1)
		defer tr.end(id)
		return f()
	}
	var id string
	s0 := time.Now()
	rec.err = call("server.submit", func() error {
		var out struct{ ID string }
		err := doJSON(ctx, client, http.MethodPost, baseURL+"/jobs", body, http.StatusAccepted, &out)
		id = out.ID
		return err
	})
	rec.submit = time.Since(s0)
	if rec.err != nil {
		return rec
	}
	rec.err = call("server.events", func() error {
		n, err := readEvents(ctx, client, baseURL+"/jobs/"+id+"/events")
		rec.events = n
		return err
	})
	if rec.err == nil {
		rec.err = call("server.status", func() error {
			return doJSON(ctx, client, http.MethodGet, baseURL+"/jobs/"+id, nil, http.StatusOK, &rec.status)
		})
	}
	if rec.err == nil && (rec.status.State != server.StateDone || !rec.status.Verified) {
		rec.err = fmt.Errorf("job %s is %s, verified=%v: %s", id, rec.status.State, rec.status.Verified, rec.status.Error)
	}
	if rec.err != nil {
		return rec
	}
	r0 := time.Now()
	rec.err = call("server.result", func() error {
		var err error
		rec.dump, err = do(ctx, client, http.MethodGet, baseURL+"/jobs/"+id+"/result", nil, http.StatusOK)
		return err
	})
	rec.result = time.Since(r0)
	rec.latency = time.Since(t0)
	return rec
}

func do(ctx context.Context, client *http.Client, method, url string, body []byte, want int) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, strings.TrimSpace(string(data)))
	}
	return data, nil
}

func doJSON(ctx context.Context, client *http.Client, method, url string, body []byte, want int, out any) error {
	data, err := do(ctx, client, method, url, body, want)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, out)
}

// readEvents reads a job's SSE stream to its end and counts the events.
func readEvents(ctx context.Context, client *http.Client, url string) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	n := 0
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "event:") {
			n++
		}
	}
	return n, sc.Err()
}

// wrapSolvers times every solver call the daemon makes as a server.solve
// span, and hands each FLOW result's metric statistics to onFlow.
func wrapSolvers(tr *tracer, onFlow func(inject.Stats)) *server.Solvers {
	base := server.RealSolvers()
	sv := *base
	sv.Multilevel = func(ctx context.Context, h *hypergraph.Hypergraph, spec hierarchy.Spec, opt htp.MultilevelOptions) (*htp.Result, error) {
		id := tr.begin("solver", 0, "server.solve", -1)
		defer tr.end(id)
		return base.Multilevel(ctx, h, spec, opt)
	}
	sv.Flow = func(ctx context.Context, h *hypergraph.Hypergraph, spec hierarchy.Spec, opt htp.FlowOptions) (*htp.Result, error) {
		id := tr.begin("solver", 0, "server.solve", -1)
		res, err := base.Flow(ctx, h, spec, opt)
		tr.end(id)
		if err == nil {
			onFlow(res.MetricStats)
		}
		return res, err
	}
	sv.GFM = func(ctx context.Context, h *hypergraph.Hypergraph, spec hierarchy.Spec, opt htp.GFMOptions) (*htp.Result, error) {
		id := tr.begin("solver", 0, "server.solve", -1)
		defer tr.end(id)
		return base.GFM(ctx, h, spec, opt)
	}
	sv.Salvage = func(ctx context.Context, h *hypergraph.Hypergraph, spec hierarchy.Spec, seed int64, o obs.Observer, span obs.SpanScope) (*htp.Result, error) {
		id := tr.begin("solver", 0, "server.solve", -1)
		defer tr.end(id)
		return base.Salvage(ctx, h, spec, seed, o, span)
	}
	return &sv
}

func runHTPD(ctx context.Context, cfg config) (*result, error) {
	res := newResult()
	var in *htpdInputs
	var setups []float64
	for rep := 0; rep < htpdSetupReps; rep++ {
		t0 := time.Now()
		var err error
		if in, err = makeHTPDInputs(cfg.seed); err != nil {
			return nil, err
		}
		d, err := startDaemon(cfg.buildDir, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if _, err := d.stop(false); err != nil {
			return nil, err
		}
	}
	res.values["setup_s"] = median(setups)
	res.notes["setup_s"] = fmt.Sprintf("median of %d", len(setups))
	client := newClient(numClients())
	defer client.CloseIdleConnections()
	jobs := max(htpdMinJobs, int(math.Ceil(cfg.window.Seconds()*htpdJobsPerSecond)))

	d, err := startDaemon(cfg.buildDir, nil)
	if err != nil {
		return nil, err
	}
	recs, elapsed := stream(ctx, d.ts.URL, client, in, jobs, nil)
	client.CloseIdleConnections()
	if _, err := d.stop(false); err != nil {
		return nil, err
	}
	checkJobs(res, in, recs)
	var walls, lat, costs []float64
	seen := map[string]bool{}
	for _, r := range recs {
		if r.err != nil {
			continue
		}
		walls = append(walls, r.status.FinishedAt.Sub(r.status.SubmittedAt).Seconds())
		lat = append(lat, r.latency.Seconds())
		if !seen[r.key] {
			seen[r.key] = true
			costs = append(costs, r.status.Cost)
		}
	}
	res.values["wall_s"] = median(walls)
	res.notes["wall_s"] = fmt.Sprintf("submit to finish inside the daemon, median of %d", len(walls))
	setJobMetrics(res, lat)
	res.values["jobs_per_s"] = float64(len(lat)) / elapsed.Seconds()
	res.notes["jobs_per_s"] = fmt.Sprintf("%d jobs in %.1fs, %d clients", len(lat), elapsed.Seconds(), numClients())
	res.values["cost_geomean"] = geomean(costs)
	res.notes["cost_geomean"] = fmt.Sprintf("%d inputs", len(costs))
	if cfg.trace {
		if err := htpdTraced(ctx, cfg, res, client, in, jobs, res.values["job_p50_s"]); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// htpdTraced runs a second stream on a fresh daemon with client spans and
// wrapped solvers, and fills the per-layer metrics. untracedP50 is the
// untraced stream's median job latency in seconds.
func htpdTraced(ctx context.Context, cfg config, res *result, client *http.Client, in *htpdInputs, jobs int, untracedP50 float64) error {
	tr := newTracer()
	var flowMu sync.Mutex
	var flows []inject.Stats
	d, err := startDaemon(cfg.buildDir, wrapSolvers(tr, func(st inject.Stats) {
		flowMu.Lock()
		flows = append(flows, st)
		flowMu.Unlock()
	}))
	if err != nil {
		return err
	}
	recs, _ := stream(ctx, d.ts.URL, client, in, jobs, tr)
	client.CloseIdleConnections()
	certMS := checkJobs(res, in, recs)
	// The live heap is measured with the daemon still holding every job and
	// the benchmark holding none of the result dumps.
	for i := range recs {
		recs[i].dump = nil
	}
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	journal, err := os.Stat(d.cfg.JournalPath)
	if err != nil {
		return err
	}
	restart, err := d.stop(true)
	if err != nil {
		return err
	}
	res.spans = tr.snapshot()

	v := res.values
	var submit, queue, run, result, events, lat []float64
	for _, r := range recs {
		if r.err != nil {
			continue
		}
		v["server.degraded"] += float64(r.status.Degradations)
		v["server.retries"] += float64(r.status.Retries)
		submit = append(submit, millis(r.submit))
		queue = append(queue, millis(r.status.StartedAt.Sub(r.status.SubmittedAt)))
		run = append(run, millis(r.status.FinishedAt.Sub(*r.status.StartedAt)))
		result = append(result, millis(r.result))
		events = append(events, float64(r.events))
		lat = append(lat, millis(r.latency))
	}
	v["server.submit_ms"] = median(submit)
	v["server.queue_wait_ms"] = median(queue)
	v["server.run_ms"] = median(run)
	v["server.result_ms"] = median(result)
	v["server.sse_events"] = median(events)
	v["server.journal_bytes"] = float64(journal.Size()) / float64(max(len(recs), 1))
	v["server.heap_live_mb"] = float64(mem.HeapAlloc) / (1 << 20)
	v["server.restart_ms"] = millis(restart)
	v["verify.certify_ms"] = median(certMS)
	for _, m := range catalog {
		if strings.HasPrefix(m.name, "server.") {
			res.notes[m.name] = fmt.Sprintf("%d jobs", len(recs))
		}
	}

	self := selfTimes(res.spans)
	var solves, unaccounted []float64
	for _, s := range res.spans {
		switch s.Name {
		case "server.solve":
			solves = append(solves, millis(s.dur()))
		case "job":
			unaccounted = append(unaccounted, millis(self[s.ID]))
		}
	}
	v["server.solve_ms"] = median(solves)
	v["trace.wall_ms"] = median(lat)
	v["trace.untraced_wall_ms"] = untracedP50 * 1000
	v["trace.overhead_ms"] = v["trace.wall_ms"] - v["trace.untraced_wall_ms"]
	v["trace.unaccounted_ms"] = median(unaccounted)
	res.notes["trace.wall_ms"] = "median job latency"

	var rounds, injections, treeNets []float64
	converged := 0
	for _, st := range flows {
		rounds = append(rounds, float64(st.Rounds))
		injections = append(injections, float64(st.Injections))
		treeNets = append(treeNets, float64(st.TreeNets))
		if st.Converged {
			converged++
		}
	}
	v["inject.rounds"] = median(rounds)
	v["inject.injections"] = median(injections)
	v["inject.tree_nets"] = median(treeNets)
	if len(flows) > 0 {
		v["inject.converged"] = float64(converged) / float64(len(flows))
	}
	return nil
}

func millis(d time.Duration) float64 { return float64(d) / 1e6 }

// checkJobs counts the jobs, fails those that did not come back done and
// verified, and re-certifies every result dump against the circuit it was
// solved on: the dump must decode, certify, and carry the status cost, and
// every repeat of one input must cost the same. Returns the certification
// times in milliseconds.
func checkJobs(res *result, in *htpdInputs, recs []jobRecord) []float64 {
	var certMS []float64
	for _, r := range recs {
		res.attempted++
		if r.err != nil {
			res.fail("%s: %v", r.key, r.err)
			continue
		}
		t0 := time.Now()
		err := recertify(in, r)
		certMS = append(certMS, millis(time.Since(t0)))
		if err != nil {
			res.fail("%s: result dump: %v", r.key, err)
			continue
		}
		res.expect("htpd/"+r.key+"/cost", r.status.Cost)
	}
	return certMS
}

func recertify(in *htpdInputs, r jobRecord) error {
	dump, err := hierarchy.ReadDump(bytes.NewReader(r.dump))
	if err != nil {
		return err
	}
	circuit, _, _ := strings.Cut(r.key, "/")
	p, err := dump.Partition(in.graphs[circuit])
	if err != nil {
		return err
	}
	if dump.Cost != r.status.Cost {
		return fmt.Errorf("dump cost %v, status cost %v", dump.Cost, r.status.Cost)
	}
	if err := certify(p, dump.Cost); err != nil {
		return err
	}
	if r.status.StartedAt == nil || r.status.FinishedAt == nil {
		return errors.New("status lacks start or finish time")
	}
	return nil
}
