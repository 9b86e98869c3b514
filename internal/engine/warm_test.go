package engine

import (
	"context"
	"testing"

	"crsharing/internal/algo/greedybalance"
	"crsharing/internal/core"
	"crsharing/internal/progress"
	"crsharing/internal/solver"
)

// warmSolver is a stub kernel that honours the warm-start protocol: a
// feasible hint on the context is accepted (recorded via SetWarmSeed, exactly
// as the branch-and-bound kernel does) and surfaces in its stats; the
// schedule itself comes from greedy-balance so it is always valid.
type warmSolver struct {
	name string
}

func (s *warmSolver) Name() string { return s.name }

func (s *warmSolver) Solve(ctx context.Context, inst *core.Instance) (*core.Schedule, solver.Stats, error) {
	st := solver.Stats{Solver: s.name, Nodes: 1}
	if h := progress.WarmStartFrom(ctx); h != nil && h.Schedule != nil {
		if res, err := core.Execute(inst, h.Schedule); err == nil && res.Finished() {
			st.WarmStart = true
			st.SeedMakespan = res.Makespan()
			progress.SetWarmSeed(ctx, int64(res.Makespan()))
		}
	}
	sched, err := greedybalance.New().Schedule(inst)
	return sched, st, err
}

func newWarmEngine(t *testing.T, mutate func(*Config)) *Engine {
	t.Helper()
	reg := solver.NewRegistry()
	reg.Register("warm-stub", func() solver.Solver { return &warmSolver{name: "warm-stub"} })
	cfg := Config{
		Registry:      reg,
		Cache:         solver.NewCache(4, 256),
		DefaultSolver: "warm-stub",
	}
	if mutate != nil {
		mutate(&cfg)
	}
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	return eng
}

// TestRequestWarmStartTelemetry covers the request-supplied hint path: a
// fresh solve that accepts the hint reports warm_start="request" and the
// validated seed makespan; replays of the same answer do not re-claim it.
func TestRequestWarmStartTelemetry(t *testing.T) {
	eng := newWarmEngine(t, nil)
	ctx := context.Background()

	cold, err := eng.Solve(ctx, Request{Instance: core.NewInstance([]float64{0.3, 0.7}, []float64{0.5})})
	if err != nil {
		t.Fatal(err)
	}
	if cold.Telemetry.WarmStart != "" || cold.Telemetry.SeedMakespan != 0 {
		t.Fatalf("hintless solve claims a warm start: %+v", cold.Telemetry)
	}

	inst := core.NewInstance([]float64{0.4, 0.6}, []float64{0.2, 0.8})
	hint, err := greedybalance.New().Schedule(inst)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := eng.Solve(ctx, Request{Instance: inst, WarmStart: hint})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Telemetry.Source != string(solver.SourceSolve) {
		t.Fatalf("warm request answered from %q, want a fresh solve", warm.Telemetry.Source)
	}
	if warm.Telemetry.WarmStart != WarmSourceRequest {
		t.Fatalf("warm_start = %q, want %q", warm.Telemetry.WarmStart, WarmSourceRequest)
	}
	if warm.Telemetry.SeedMakespan <= 0 {
		t.Fatalf("seed_makespan = %d, want the hint's validated makespan", warm.Telemetry.SeedMakespan)
	}

	replay, err := eng.Solve(ctx, Request{Instance: inst})
	if err != nil {
		t.Fatal(err)
	}
	if replay.Telemetry.Source == string(solver.SourceSolve) {
		t.Fatalf("replay re-solved")
	}
	if replay.Telemetry.WarmStart != "" {
		t.Fatalf("cache replay claims warm_start = %q", replay.Telemetry.WarmStart)
	}

	if snap := eng.Snapshot(); snap.WarmStarts != 1 {
		t.Fatalf("snapshot counts %d warm starts, want 1", snap.WarmStarts)
	}
}

// TestNeighborWarmStartTelemetry covers the miss-path neighbor lookup: after
// a base instance is solved, a single-job mutant's fresh solve picks up an
// adapted hint from the neighbor index and reports warm_start="neighbor".
func TestNeighborWarmStartTelemetry(t *testing.T) {
	eng := newWarmEngine(t, nil)
	ctx := context.Background()

	base := core.NewInstance(
		[]float64{0.9, 0.3, 0.5},
		[]float64{0.2, 0.6},
		[]float64{0.7, 0.1},
	)
	if _, err := eng.Solve(ctx, Request{Instance: base}); err != nil {
		t.Fatal(err)
	}

	mutant := base.Clone()
	mutant.Procs[1] = mutant.Procs[1][1:] // drop one job
	res, err := eng.Solve(ctx, Request{Instance: mutant})
	if err != nil {
		t.Fatal(err)
	}
	if res.Telemetry.Source != string(solver.SourceSolve) {
		t.Fatalf("mutant answered from %q, want a fresh solve", res.Telemetry.Source)
	}
	if res.Telemetry.WarmStart != WarmSourceNeighbor {
		t.Fatalf("warm_start = %q, want %q", res.Telemetry.WarmStart, WarmSourceNeighbor)
	}
	if res.Telemetry.SeedMakespan <= 0 {
		t.Fatalf("seed_makespan = %d for an accepted neighbor hint", res.Telemetry.SeedMakespan)
	}
}
