package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"crsharing/internal/algo/greedybalance"
	"crsharing/internal/core"
	"crsharing/internal/progress"
	"crsharing/internal/solver"
	"crsharing/internal/stats"
)

// countingSolver tracks its concurrency high-water mark and optionally
// blocks until released or cancelled. Successful solves delegate to
// greedy-balance so the schedule is valid.
type countingSolver struct {
	name  string
	calls atomic.Int64
	cur   atomic.Int64
	max   atomic.Int64
	block chan struct{} // when non-nil, Solve waits for close or ctx
}

func (s *countingSolver) Name() string { return s.name }

func (s *countingSolver) Solve(ctx context.Context, inst *core.Instance) (*core.Schedule, solver.Stats, error) {
	s.calls.Add(1)
	cur := s.cur.Add(1)
	defer s.cur.Add(-1)
	for {
		max := s.max.Load()
		if cur <= max || s.max.CompareAndSwap(max, cur) {
			break
		}
	}
	if s.block != nil {
		select {
		case <-s.block:
		case <-ctx.Done():
			return nil, solver.Stats{Solver: s.name}, ctx.Err()
		}
	}
	sched, err := greedybalance.New().Schedule(inst)
	return sched, solver.Stats{Solver: s.name, Elapsed: time.Microsecond, Nodes: 7}, err
}

func newTestEngine(t *testing.T, stub solver.Solver, mutate func(*Config)) *Engine {
	t.Helper()
	reg := solver.NewRegistry()
	reg.Register("stub", func() solver.Solver { return stub })
	cfg := Config{
		Registry:      reg,
		Cache:         solver.NewCache(4, 64),
		DefaultSolver: "stub",
	}
	if mutate != nil {
		mutate(&cfg)
	}
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// distinctInstances returns n instances with pairwise distinct fingerprints.
func distinctInstances(n int) []*core.Instance {
	insts := make([]*core.Instance, n)
	for i := range insts {
		insts[i] = core.NewInstance([]float64{float64(i+1) / float64(n+1), 0.5}, []float64{0.25})
	}
	return insts
}

func TestSolveSources(t *testing.T) {
	stub := &countingSolver{name: "stub"}
	eng := newTestEngine(t, stub, nil)
	inst := core.NewInstance([]float64{0.3, 0.7}, []float64{0.5})

	first, err := eng.Solve(context.Background(), Request{Instance: inst})
	if err != nil {
		t.Fatal(err)
	}
	if first.Telemetry.Source != string(solver.SourceSolve) || first.Telemetry.Nodes != 7 {
		t.Fatalf("fresh telemetry malformed: %+v", first.Telemetry)
	}
	if first.Fingerprint != inst.Fingerprint() {
		t.Fatal("result fingerprint does not match the instance")
	}
	if first.Telemetry.Makespan != first.Evaluation.Makespan || first.Telemetry.Steps <= 0 {
		t.Fatalf("telemetry/evaluation mismatch: %+v", first.Telemetry)
	}

	second, err := eng.Solve(context.Background(), Request{Instance: inst})
	if err != nil {
		t.Fatal(err)
	}
	if second.Telemetry.Source != string(solver.SourceCache) || second.Telemetry.Nodes != 7 {
		t.Fatalf("cached telemetry malformed: %+v", second.Telemetry)
	}
	if got := stub.calls.Load(); got != 1 {
		t.Fatalf("solver invoked %d times for identical requests, want 1", got)
	}

	snap := eng.Snapshot()
	if snap.SourceSolve != 1 || snap.SourceCache != 1 || snap.NodesTotal != 7 {
		t.Fatalf("snapshot accounting wrong: %+v", snap)
	}
	if snap.SolveSeconds.Count() != 1 || snap.SolveNodes.Count() != 1 {
		t.Fatalf("histograms missed the fresh solve: %+v", snap)
	}
}

func TestSolveValidation(t *testing.T) {
	eng := newTestEngine(t, &countingSolver{name: "stub"}, nil)
	if _, err := eng.Solve(context.Background(), Request{}); err == nil {
		t.Error("missing instance accepted")
	}
	bad := core.NewInstance([]float64{1.5})
	if _, err := eng.Solve(context.Background(), Request{Instance: bad}); err == nil {
		t.Error("invalid instance accepted")
	}
	good := core.NewInstance([]float64{0.5})
	if _, err := eng.Solve(context.Background(), Request{Instance: good, Solver: "no-such"}); err == nil {
		t.Error("unknown solver accepted")
	}
}

func TestSolveDeadlineClamping(t *testing.T) {
	stub := &countingSolver{name: "stub", block: make(chan struct{})} // never released
	eng := newTestEngine(t, stub, func(cfg *Config) {
		cfg.DefaultTimeout = 50 * time.Millisecond
		cfg.MaxTimeout = 100 * time.Millisecond
	})
	inst := core.NewInstance([]float64{0.5})

	// No requested budget: the default applies.
	start := time.Now()
	_, err := eng.Solve(context.Background(), Request{Instance: inst})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("default deadline not applied")
	}

	// A budget above the ceiling is clamped to it.
	start = time.Now()
	_, err = eng.Solve(context.Background(), Request{Instance: inst, Timeout: time.Hour})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("MaxTimeout clamp not applied: waited %s", elapsed)
	}

	// Per-request limits override the engine's: the job surface passes its
	// own, larger ceilings.
	start = time.Now()
	_, err = eng.Solve(context.Background(), Request{
		Instance: inst,
		Timeout:  250 * time.Millisecond,
		Limits:   &Limits{Default: time.Second, Max: time.Second},
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed < 200*time.Millisecond {
		t.Fatalf("request limits ignored: expired after %s under a 250ms budget", elapsed)
	}
}

func TestLimitsResolve(t *testing.T) {
	l := Limits{Default: 30 * time.Second, Max: 2 * time.Minute}
	cases := []struct {
		in, want time.Duration
	}{
		{0, 30 * time.Second},
		{time.Second, time.Second},
		{time.Hour, 2 * time.Minute},
	}
	for _, c := range cases {
		if got := l.Resolve(c.in); got != c.want {
			t.Errorf("Resolve(%s) = %s, want %s", c.in, got, c.want)
		}
	}
}

func TestObserverAttachment(t *testing.T) {
	// A solver that reports incumbents through the context.
	reporting := solverFunc(func(ctx context.Context, inst *core.Instance) (*core.Schedule, solver.Stats, error) {
		progress.Report(ctx, progress.Incumbent{Solver: "reporting", Makespan: 5})
		progress.Report(ctx, progress.Incumbent{Solver: "reporting", Makespan: 3})
		sched, err := greedybalance.New().Schedule(inst)
		return sched, solver.Stats{Solver: "reporting"}, err
	})
	reg := solver.NewRegistry()
	reg.Register("reporting", func() solver.Solver { return reporting })
	eng, err := New(Config{Registry: reg, DefaultSolver: "reporting"})
	if err != nil {
		t.Fatal(err)
	}
	var seen []int
	var mu sync.Mutex
	_, err = eng.Solve(context.Background(), Request{
		Instance: core.NewInstance([]float64{0.5}),
		Observer: func(inc progress.Incumbent) {
			mu.Lock()
			seen = append(seen, inc.Makespan)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 2 || seen[0] != 5 || seen[1] != 3 {
		t.Fatalf("observer saw %v, want [5 3]", seen)
	}
}

type solverFunc func(ctx context.Context, inst *core.Instance) (*core.Schedule, solver.Stats, error)

func (f solverFunc) Name() string { return "reporting" }
func (f solverFunc) Solve(ctx context.Context, inst *core.Instance) (*core.Schedule, solver.Stats, error) {
	return f(ctx, inst)
}

// TestAdmissionSharedAcrossSolveAndBatch is the admission-gap regression at
// the engine level: a saturating SolveEach batch and concurrent single
// solves all draw from the same semaphore, so the solver's concurrency
// high-water mark can never exceed MaxConcurrent.
func TestAdmissionSharedAcrossSolveAndBatch(t *testing.T) {
	const cap = 2
	stub := &countingSolver{name: "stub", block: make(chan struct{})}
	eng := newTestEngine(t, stub, func(cfg *Config) { cfg.MaxConcurrent = cap })

	batch := distinctInstances(6)
	singles := distinctInstances(9)[6:] // distinct from the batch

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		outcomes := eng.SolveEach(context.Background(), "", "", batch, len(batch))
		for _, out := range outcomes {
			if out.Err != nil {
				t.Errorf("batch outcome %d: %v", out.Index, out.Err)
			}
		}
	}()
	for _, inst := range singles {
		wg.Add(1)
		go func(inst *core.Instance) {
			defer wg.Done()
			if _, err := eng.Solve(context.Background(), Request{Instance: inst, Timeout: NoDeadline}); err != nil {
				t.Errorf("single solve: %v", err)
			}
		}(inst)
	}

	// Wait until the cap is reached, then hold a beat to catch overshoot.
	deadline := time.Now().Add(5 * time.Second)
	for stub.cur.Load() < cap && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	close(stub.block)
	wg.Wait()

	if got := stub.max.Load(); got != cap {
		t.Fatalf("solver concurrency high-water mark %d, want exactly the configured cap %d", got, cap)
	}
	if got := stub.calls.Load(); got != int64(len(batch)+len(singles)) {
		t.Fatalf("%d solves ran, want %d", got, len(batch)+len(singles))
	}
}

// TestAdmissionQueuedSolveNotStarved checks FIFO admission: a synchronous
// solve queued behind a saturating batch runs as soon as a slot frees
// instead of being starved by later batch shards.
func TestAdmissionQueuedSolveNotStarved(t *testing.T) {
	stub := &countingSolver{name: "stub", block: make(chan struct{})}
	eng := newTestEngine(t, stub, func(cfg *Config) { cfg.MaxConcurrent = 1 })

	// Saturate: one blocking solve holds the only slot.
	first := make(chan error, 1)
	insts := distinctInstances(2)
	go func() {
		_, err := eng.Solve(context.Background(), Request{Instance: insts[0], Timeout: NoDeadline})
		first <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for stub.cur.Load() < 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	// The queued sync solve waits...
	second := make(chan error, 1)
	go func() {
		_, err := eng.Solve(context.Background(), Request{Instance: insts[1], Timeout: NoDeadline})
		second <- err
	}()
	select {
	case err := <-second:
		t.Fatalf("queued solve finished while the slot was held (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
	}

	// ...and runs once the slot frees.
	close(stub.block)
	for _, ch := range []chan error{first, second} {
		select {
		case err := <-ch:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("solve did not finish after the slot freed")
		}
	}
	if got := stub.max.Load(); got != 1 {
		t.Fatalf("concurrency high-water mark %d, want 1", got)
	}
}

// TestAdmissionRespectsDeadlineWhileQueued: a queued request whose budget
// expires leaves the admission queue with a deadline error instead of
// waiting forever.
func TestAdmissionRespectsDeadlineWhileQueued(t *testing.T) {
	stub := &countingSolver{name: "stub", block: make(chan struct{})}
	defer close(stub.block)
	eng := newTestEngine(t, stub, func(cfg *Config) { cfg.MaxConcurrent = 1 })
	insts := distinctInstances(2)

	done := make(chan error, 1)
	go func() {
		_, err := eng.Solve(context.Background(), Request{Instance: insts[0], Timeout: NoDeadline})
		done <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for stub.cur.Load() < 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	_, err := eng.Solve(context.Background(), Request{Instance: insts[1], Timeout: 50 * time.Millisecond})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued solve err = %v, want deadline exceeded", err)
	}
	if eng.Snapshot().Waiting != 0 {
		t.Fatal("expired request still queued for admission")
	}
}

func TestSolveEachSkipsAfterCancellation(t *testing.T) {
	stub := &countingSolver{name: "stub", block: make(chan struct{})} // never released
	defer close(stub.block)
	eng := newTestEngine(t, stub, func(cfg *Config) { cfg.MaxConcurrent = 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	outcomes := eng.SolveEach(ctx, "", "", distinctInstances(4), 2)
	solved, failed, skipped := 0, 0, 0
	for _, out := range outcomes {
		switch {
		case out.Skipped:
			skipped++
			if out.Err == nil {
				t.Fatalf("skipped outcome without error: %+v", out)
			}
		case out.Err != nil:
			failed++
		default:
			solved++
		}
	}
	if solved != 0 {
		t.Fatalf("blocked solver cannot have solved anything: %d solved", solved)
	}
	if skipped == 0 {
		t.Fatal("expected some never-attempted instances marked skipped")
	}
	if solved+failed+skipped != 4 {
		t.Fatalf("accounting broken: %d/%d/%d", solved, failed, skipped)
	}
}

// TestSchedulerCancelledWaiterUnblocksQueue checks that a waiter cancelled
// at the head of its tenant's queue leaves the queue: the next released slot
// goes to the waiter behind it instead of to the departed one.
func TestSchedulerCancelledWaiterUnblocksQueue(t *testing.T) {
	sem := newFairScheduler(1, nil, 0)
	ctx := context.Background()
	if err := sem.Acquire(ctx, ""); err != nil {
		t.Fatal(err)
	}
	headCtx, headCancel := context.WithCancel(ctx)
	headErr := make(chan error, 1)
	go func() { headErr <- sem.Acquire(headCtx, "") }()
	for sem.Waiting() < 1 {
		time.Sleep(time.Millisecond)
	}
	nextErr := make(chan error, 1)
	go func() { nextErr <- sem.Acquire(ctx, "") }()
	for sem.Waiting() < 2 {
		time.Sleep(time.Millisecond)
	}

	headCancel()
	if err := <-headErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("head waiter err = %v", err)
	}
	if got := sem.Waiting(); got != 1 {
		t.Fatalf("Waiting = %d after the head left, want 1", got)
	}
	sem.Release("")
	select {
	case err := <-nextErr:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("waiter behind the cancelled head not admitted")
	}
	sem.Release("")
	if got := sem.InUse(); got != 0 {
		t.Fatalf("InUse = %d after full release, want 0", got)
	}
}

func TestDefaultsAndAccessors(t *testing.T) {
	reg := solver.Default()
	eng, err := New(Config{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	if eng.DefaultSolver() != "portfolio" || eng.MaxConcurrent() != 16 {
		t.Fatalf("defaults not applied: %q %d", eng.DefaultSolver(), eng.MaxConcurrent())
	}
	if l := eng.Limits(); l.Default != 30*time.Second || l.Max != 2*time.Minute {
		t.Fatalf("default limits %+v", l)
	}
	if eng.Registry() != reg || eng.Cache() != nil {
		t.Fatal("accessors broken")
	}
	if _, err := New(Config{}); err == nil {
		t.Fatal("nil registry accepted")
	}
	if _, err := New(Config{Registry: reg, DefaultSolver: "no-such"}); err == nil {
		t.Fatal("unknown default solver accepted")
	}
	name, err := eng.ResolveSolver("")
	if err != nil || name != "portfolio" {
		t.Fatalf("ResolveSolver empty = %q, %v", name, err)
	}
	if _, err := eng.ResolveSolver("no-such"); err == nil {
		t.Fatal("unknown solver resolved")
	}
}

func TestSolveWithoutCache(t *testing.T) {
	stub := &countingSolver{name: "stub"}
	eng := newTestEngine(t, stub, func(cfg *Config) { cfg.Cache = nil })
	inst := core.NewInstance([]float64{0.5})
	for i := 0; i < 2; i++ {
		res, err := eng.Solve(context.Background(), Request{Instance: inst})
		if err != nil {
			t.Fatal(err)
		}
		if res.Telemetry.Source != string(solver.SourceSolve) {
			t.Fatalf("uncached solve %d source %q", i, res.Telemetry.Source)
		}
	}
	if got := stub.calls.Load(); got != 2 {
		t.Fatalf("uncached engine memoised: %d calls", got)
	}
	if snap := eng.Snapshot(); snap.SourceSolve != 2 {
		t.Fatalf("snapshot %+v", snap)
	}
}

// TestHistogramCumulativeBuckets checks what feeds the solve histograms:
// fresh solves observe their duration and node count, cache replays and
// failures do not, and the cumulative decade buckets count each solve at
// and above its own bound.
func TestHistogramCumulativeBuckets(t *testing.T) {
	m := newMetrics()
	for _, s := range []struct {
		elapsed time.Duration
		nodes   int64
	}{{500 * time.Microsecond, 0}, {5 * time.Millisecond, 50}, {5 * time.Millisecond, 5000}} {
		m.observe("t", solver.SourceSolve, &solver.Evaluation{Stats: solver.Stats{Elapsed: s.elapsed, Nodes: s.nodes}}, nil, 0)
	}
	m.observe("t", solver.SourceCache, &solver.Evaluation{Stats: solver.Stats{Elapsed: time.Second, Nodes: 1}}, nil, 0)
	m.observe("t", solver.SourceSolve, nil, errors.New("boom"), 0)
	for _, c := range []struct {
		h    *stats.Histogram
		want map[float64]uint64
	}{
		{&m.solveSeconds, map[float64]uint64{1e-4: 0, 1e-3: 1, 1e-2: 3, 1: 3}},
		{&m.solveNodes, map[float64]uint64{1e-6: 1, 10: 1, 100: 2, 1e4: 3}},
	} {
		for _, b := range c.h.Decades() {
			if want, ok := c.want[b.Hi]; ok && b.Count != want {
				t.Fatalf("le=%g counts %d, want %d (%+v)", b.Hi, b.Count, want, c.h.Decades())
			}
		}
		if c.h.Count() != 3 {
			t.Fatalf("histogram count %d, want the 3 fresh solves", c.h.Count())
		}
	}
	if got := m.solveSeconds.Sum(); math.Abs(got-0.0105) > 1e-12 {
		t.Fatalf("solve seconds sum %g, want 0.0105", got)
	}
}

func TestTelemetryJSONShape(t *testing.T) {
	// The telemetry must serialise with stable snake_case keys — it is part
	// of the public API surface (solve responses, job records, crload).
	eng := newTestEngine(t, &countingSolver{name: "stub"}, nil)
	res, err := eng.Solve(context.Background(), Request{Instance: core.NewInstance([]float64{0.5})})
	if err != nil {
		t.Fatal(err)
	}
	raw := fmt.Sprintf("%+v", res.Telemetry)
	if res.Telemetry.Solver != "stub" || res.Telemetry.LowerBoundKind == "" {
		t.Fatalf("telemetry incomplete: %s", raw)
	}
}
