package htp

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/anytime"
	"repro/internal/inject"
	"repro/internal/obs"
)

// ---- cancellation (tentpole: anytime contract) ----

func TestFlowCtxAlreadyCancelled(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	h := fourClusters(t, rng, 4, 4, 0.8)
	spec := binarySpec(t, h, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := FlowCtx(ctx, h, spec, FlowOptions{Iterations: 2})
	if res != nil {
		t.Fatalf("expected no result from a dead context, got cost %g", res.Cost)
	}
	if !errors.Is(err, anytime.ErrNoPartition) {
		t.Fatalf("error should wrap ErrNoPartition, got: %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error should wrap context.Canceled, got: %v", err)
	}
}

func TestFlowCtxCancelMidRunReturnsBestSoFar(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	h := fourClusters(t, rng, 4, 8, 0.6)
	spec := binarySpec(t, h, 2)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Mid-run cancellation triggered by the first iteration to complete:
	// its iter-done event cancels the context. The last iteration's fault
	// seam waits for that cancel, so it always lands before the run ends,
	// whatever the pool size and however the iterations overlap.
	const n = 8
	flowIterFault = func(iter int) {
		if iter == n-1 {
			<-ctx.Done()
		}
	}
	defer func() { flowIterFault = nil }()
	res, err := FlowCtx(ctx, h, spec, FlowOptions{Iterations: n, Observer: cancelOnIterDone(cancel)})
	if err != nil {
		t.Fatalf("best-so-far expected, got error: %v", err)
	}
	if res.Stop != anytime.StopCancelled {
		t.Fatalf("Stop = %q, want %q", res.Stop, anytime.StopCancelled)
	}
	if err := res.Partition.Validate(); err != nil {
		t.Fatalf("best-so-far partition invalid: %v", err)
	}
}

func TestFlowCtxDeadlineReturnsValidPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	// Large enough that 64 iterations take far longer than the deadline.
	h := fourClusters(t, rng, 8, 32, 0.4)
	spec := binarySpec(t, h, 3)
	ctx, cancel := context.WithTimeout(context.Background(), 25*time.Millisecond)
	defer cancel()
	res, err := FlowCtx(ctx, h, spec, FlowOptions{Iterations: 64})
	if err != nil {
		t.Fatalf("best-so-far expected at deadline, got error: %v", err)
	}
	if res.Stop != anytime.StopDeadline {
		t.Fatalf("Stop = %q, want %q", res.Stop, anytime.StopDeadline)
	}
	if err := res.Partition.Validate(); err != nil {
		t.Fatalf("best-so-far partition invalid: %v", err)
	}
	if res.Iterations >= 64 {
		t.Fatalf("Iterations = %d: a deadline-stopped run must report only the iterations whose metric ran", res.Iterations)
	}
	if res.Cost <= 0 {
		t.Fatalf("suspicious zero cost %g for a bridged instance", res.Cost)
	}
}

func TestFlowCtxUncancelledMatchesFlow(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	h := fourClusters(t, rng, 4, 6, 0.7)
	spec := binarySpec(t, h, 2)
	opt := FlowOptions{Iterations: 3, PartitionsPerMetric: 2, Seed: 5}
	plain, err := Flow(h, spec, opt)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	under, err := FlowCtx(ctx, h, spec, opt)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Cost != under.Cost {
		t.Fatalf("a live context changed the result: %g vs %g", plain.Cost, under.Cost)
	}
	for v := range plain.Partition.LeafOf {
		if plain.Partition.LeafOf[v] != under.Partition.LeafOf[v] {
			t.Fatalf("leaf assignment diverges at node %d", v)
		}
	}
	if under.Stop != anytime.StopConverged {
		t.Fatalf("Stop = %q, want %q", under.Stop, anytime.StopConverged)
	}
}

// TestFlowCtxParallelMatchesSequentialUnderLiveContext: under a live
// (never firing) context, a pool of one and wider pools agree bit for bit.
func TestFlowCtxParallelMatchesSequentialUnderLiveContext(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	h := fourClusters(t, rng, 4, 6, 0.7)
	spec := binarySpec(t, h, 2)
	opt := FlowOptions{Iterations: 4, Seed: 9}
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	var seq *Result
	for _, p := range scheduleProcs {
		var res *Result
		var err error
		atProcs(p, func() { res, err = FlowCtx(ctx, h, spec, opt) })
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

func TestRFMCtxAlreadyCancelled(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	h := fourClusters(t, rng, 4, 4, 0.8)
	spec := binarySpec(t, h, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RFMCtx(ctx, h, spec, RFMOptions{}); !errors.Is(err, anytime.ErrNoPartition) {
		t.Fatalf("RFM error should wrap ErrNoPartition, got: %v", err)
	}
	if _, err := GFMCtx(ctx, h, spec, GFMOptions{}); !errors.Is(err, anytime.ErrNoPartition) {
		t.Fatalf("GFM error should wrap ErrNoPartition, got: %v", err)
	}
}

// ---- panic containment (satellite: fault injection) ----

func TestFlowParallelPanicContained(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	h := fourClusters(t, rng, 4, 6, 0.7)
	spec := binarySpec(t, h, 2)
	flowIterFault = func(iter int) {
		if iter == 2 {
			panic("injected fault in iteration 2")
		}
	}
	defer func() { flowIterFault = nil }()
	res, err := FlowCtx(context.Background(), h, spec, FlowOptions{Iterations: 4})
	if err != nil {
		t.Fatalf("sibling iterations should still win, got error: %v", err)
	}
	if err := res.Partition.Validate(); err != nil {
		t.Fatalf("partition invalid: %v", err)
	}
	if len(res.Failures) != 1 {
		t.Fatalf("want exactly 1 contained failure, got %d: %v", len(res.Failures), res.Failures)
	}
	msg := res.Failures[0].Error()
	if !strings.Contains(msg, "panicked") || !strings.Contains(msg, "injected fault") {
		t.Fatalf("failure should carry the panic, got: %v", msg)
	}
	if !strings.Contains(msg, "anytime_test.go") {
		t.Fatalf("failure should carry the stack, got: %v", msg)
	}
}

func TestFlowAllIterationsPanicYieldsError(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	h := fourClusters(t, rng, 4, 4, 0.8)
	spec := binarySpec(t, h, 2)
	flowIterFault = func(int) { panic("every iteration dies") }
	defer func() { flowIterFault = nil }()
	res, err := FlowCtx(context.Background(), h, spec, FlowOptions{Iterations: 3})
	if res != nil {
		t.Fatalf("no iteration survived, yet got a result with cost %g", res.Cost)
	}
	if !errors.Is(err, anytime.ErrNoPartition) {
		t.Fatalf("error should wrap ErrNoPartition, got: %v", err)
	}
	if !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("error should mention the panics, got: %v", err)
	}
}

// ---- stats aggregation (satellite: Converged is the AND) ----

func TestFlowConvergedStatsAggregation(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	h := fourClusters(t, rng, 4, 6, 0.7)
	spec := binarySpec(t, h, 2)

	res, err := Flow(h, spec, FlowOptions{Iterations: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.MetricStats.Converged {
		t.Fatalf("full run should converge, stats: %+v", res.MetricStats)
	}
	if res.Stop != anytime.StopConverged {
		t.Fatalf("Stop = %q, want %q", res.Stop, anytime.StopConverged)
	}

	// A one-round metric budget leaves every iteration unconverged; one
	// unconverged iteration must mark the aggregate (AND, not last-wins).
	res, err = Flow(h, spec, FlowOptions{Iterations: 3, Inject: inject.Options{MaxRounds: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if res.MetricStats.Converged {
		t.Fatalf("MaxRounds=1 cannot converge, stats: %+v", res.MetricStats)
	}
	if res.Stop != anytime.StopMaxRounds {
		t.Fatalf("Stop = %q, want %q", res.Stop, anytime.StopMaxRounds)
	}
	if err := res.Partition.Validate(); err != nil {
		t.Fatalf("partition from truncated metrics invalid: %v", err)
	}
}

// countdownCtx reports no error for its first n Err calls and
// DeadlineExceeded from then on, so a test can land the deadline between
// any two of the solver's cancellation checks. The counter is atomic:
// concurrent iterations check it from several goroutines, and once expired
// it stays expired.
type countdownCtx struct {
	context.Context
	n atomic.Int64
}

func (c *countdownCtx) Err() error {
	if c.n.Add(-1) >= 0 {
		return nil
	}
	return context.DeadlineExceeded
}

// cancelOnIterDone is an observer that calls cancel on every iter-done
// event (repeat calls are no-ops).
type cancelOnIterDone context.CancelFunc

func (c cancelOnIterDone) Event(e obs.Event) {
	if e.Kind == obs.KindIterDone {
		c()
	}
}

// TestFlowCtxDeadlineAtEveryCheckpoint moves the deadline across FlowCtx's
// cancellation checks one at a time. Wherever it lands — including between
// FlowCtx's own entry check and the metric engine's — the run returns
// either a valid best-so-far partition or an error wrapping ErrNoPartition.
func TestFlowCtxDeadlineAtEveryCheckpoint(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	h := fourClusters(t, rng, 4, 4, 0.8)
	spec := binarySpec(t, h, 2)
	for n := 0; n < 40; n++ {
		ctx := &countdownCtx{Context: context.Background()}
		ctx.n.Store(int64(n))
		res, err := FlowCtx(ctx, h, spec, FlowOptions{Iterations: 2})
		if err != nil {
			if !errors.Is(err, anytime.ErrNoPartition) {
				t.Fatalf("deadline after %d checks: error does not wrap ErrNoPartition: %v", n, err)
			}
			continue
		}
		if err := res.Partition.Validate(); err != nil {
			t.Fatalf("deadline after %d checks: invalid partition: %v", n, err)
		}
	}
}
