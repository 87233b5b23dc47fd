// Command htpbench is the repository's benchmark: it generates a workload's
// inputs from a seed, drives them through the same public entry points that
// htpart and htpd use, independently certifies every partition, and prints
// every metric by name with its unit. The last line of standard output is
// one JSON object:
//
//	{"correct": true, "attempted": 4, "failed": 0, "metrics": {"wall_s": {"value": 8.1, "unit": "s"}, ...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured untraced.
// With --trace 1 they are the per-layer ones: the run composes each
// pipeline from the layers' public functions, times every layer call in a
// span kept in memory, and writes the spans out at the end.
//
// Workloads:
//
//	ml65k  65536-gate synthetic: parse, multilevel V-cycle with flow
//	       refinement, certify (htpart -multilevel -flow-refine)
//	iscas  the five ISCAS85-class circuits in turn: parse, FLOW+ (N=4),
//	       flow-refine post-pass, certify (htpart -algo flow+ -flow-refine)
//	htpd   an in-process daemon behind a loopback HTTP server, driven by
//	       closed-loop clients (submit, SSE, status, result)
//
// Usage, from the repository root:
//
//	bash htpbench/run.sh --workload ml65k --seed 1 --seconds 30 --trace 0
//
// The command exits non-zero when any partition fails certification, when
// a cost or deterministic count differs between repeats of one input, or
// when the run cannot complete.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// solverSeed is the solver seed of every ml65k solve: htpart's default.
const solverSeed = 1

// seedStride separates the seed ranges of workload seeds: the k-th input
// seed of workload seed s is (s−1)·seedStride + k + 1, whatever the run
// length, so a traced run solves the first inputs of the untraced run of
// the same seed, and seed 1 starts with seed 1 (the ROADMAP reference
// instance, htpart's default solver seed).
const seedStride = 1000

// inputSeed is the k-th input seed of workload seed s.
func inputSeed(s int64, k int) int64 { return (s-1)*seedStride + int64(k) + 1 }

// runTimeout bounds a whole run so the command always exits within its
// time limit. A solve it cuts short returns a best-so-far partition whose
// cost differs from earlier runs of the same seed, which the cross-run
// check reports as a failure.
const runTimeout = 150 * time.Second

// result is what a workload run hands back to main.
type result struct {
	attempted int
	failed    int
	// values holds every metric the run measured, by catalog name.
	values map[string]float64
	// notes annotates table rows (sample counts, percentiles).
	notes map[string]string
	// problems lists every correctness failure, for standard error.
	problems []string
	// counts are the deterministic outputs of the run (costs and counts)
	// that must repeat exactly across runs of one seed.
	counts map[string]float64
	spans  []span
}

func newResult() *result {
	return &result{values: map[string]float64{}, notes: map[string]string{}, counts: map[string]float64{}}
}

// fail records one correctness failure.
func (r *result) fail(format string, args ...any) {
	r.failed++
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// expect records a deterministic output; a second value under the same key
// that differs is a failure.
func (r *result) expect(key string, v float64) {
	if old, ok := r.counts[key]; ok && old != v {
		r.fail("%s: %v on one repeat, %v on another", key, old, v)
		return
	}
	r.counts[key] = v
}

type config struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	buildDir string
}

func main() {
	var cfg config
	var seconds int
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: ml65k, iscas or htpd")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed; generates the inputs")
	flag.IntVar(&seconds, "seconds", 30, "measured window in seconds")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	flag.StringVar(&cfg.buildDir, "build-dir", ".bench_build", "directory for spans, scratch files and determinism records")
	flag.Parse()
	cfg.window = time.Duration(seconds) * time.Second
	cfg.trace = trace == 1
	if cfg.trace {
		// A traced run solves every input twice, through the public entry
		// point and composed from the layers, so it takes half the inputs
		// to stay within the same time.
		cfg.window /= 2
	}
	if seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "htpbench: need --seconds >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	if err := os.MkdirAll(cfg.buildDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "htpbench:", err)
		os.Exit(1)
	}

	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	var res *result
	var err error
	switch cfg.workload {
	case "ml65k":
		res, err = runML65k(ctx, cfg)
	case "iscas":
		res, err = runISCAS(ctx, cfg)
	case "htpd":
		res, err = runHTPD(ctx, cfg)
	default:
		err = fmt.Errorf("unknown workload %q (want ml65k, iscas or htpd)", cfg.workload)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "htpbench:", err)
		os.Exit(1)
	}
	res.values["peak_rss_mb"] = peakRSSMB()
	checkAcrossRuns(cfg, res)
	if cfg.trace {
		path := filepath.Join(cfg.buildDir, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := writeJSONL(path, res.spans); err != nil {
			fmt.Fprintln(os.Stderr, "htpbench: writing spans:", err)
		} else {
			fmt.Fprintf(os.Stderr, "htpbench: %d spans written to %s\n", len(res.spans), path)
		}
	}
	for _, p := range res.problems {
		fmt.Fprintln(os.Stderr, "htpbench: FAIL:", p)
	}
	report(os.Stdout, cfg, res)
	if res.failed > 0 {
		os.Exit(1)
	}
}

// report prints the metric table and, last, the one-line JSON result.
func report(w io.Writer, cfg config, res *result) {
	fmt.Fprintf(w, "workload %s  seed %d  trace %v  attempted %d  failed %d\n",
		cfg.workload, cfg.seed, cfg.trace, res.attempted, res.failed)
	fmt.Fprintf(w, "%-28s %16s  %-6s %s\n", "metric", "value", "unit", "note")
	failFrac := float64(res.failed) / float64(max(res.attempted, 1))
	fmt.Fprintf(w, "%-28s %16.4f  %-6s %s\n", "fail_frac", failFrac, "share", fmt.Sprintf("%d of %d", res.failed, res.attempted))
	type entry struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]entry{}
	for _, m := range catalog {
		if m.endToEnd == cfg.trace {
			continue
		}
		v := res.values[m.name]
		fmt.Fprintf(w, "%-28s %16s  %-6s %s\n", m.name, strconv.FormatFloat(v, 'g', 10, 64), m.unit, res.notes[m.name])
		out[m.name] = entry{Value: v, Unit: m.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]entry `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, out})
	if err != nil {
		fmt.Fprintln(os.Stderr, "htpbench: encoding result:", err)
		os.Exit(1)
	}
	fmt.Fprintln(w, string(line))
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return math.NaN()
}

// checkAcrossRuns compares the run's deterministic outputs with the ones an
// earlier run of the same binary, workload and seed recorded, and records
// any the file does not hold yet. Keying on the binary's hash means a
// rebuilt program starts a fresh record.
func checkAcrossRuns(cfg config, res *result) {
	id, err := binaryID()
	if err != nil {
		fmt.Fprintln(os.Stderr, "htpbench: skipping cross-run check:", err)
		return
	}
	path := filepath.Join(cfg.buildDir, "expect", fmt.Sprintf("%s-%s-seed%d.json", id, cfg.workload, cfg.seed))
	recorded := map[string]float64{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &recorded); err != nil {
			res.fail("reading %s: %v", path, err)
			return
		}
	}
	grew := false
	for k, v := range res.counts {
		if old, ok := recorded[k]; ok {
			if old != v {
				res.fail("%s: %v in this run, %v in an earlier run of the same binary and seed", k, v, old)
			}
			continue
		}
		recorded[k] = v
		grew = true
	}
	if !grew {
		return
	}
	data, err := json.MarshalIndent(recorded, "", "  ")
	if err == nil {
		err = os.MkdirAll(filepath.Dir(path), 0o755)
	}
	if err == nil {
		err = os.WriteFile(path, data, 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "htpbench: recording deterministic outputs:", err)
	}
}

// numClients is the load generator's client count: at most nproc.
func numClients() int { return min(2, runtime.NumCPU()) }

// binaryID is a short hash of the running executable.
func binaryID() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}
