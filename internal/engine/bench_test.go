package engine

import (
	"context"
	"testing"

	"crsharing/internal/core"
	"crsharing/internal/solver"
)

func benchEngine(b *testing.B, cache *solver.Cache) *Engine {
	b.Helper()
	eng, err := New(Config{
		Registry:      solver.Default(),
		Cache:         cache,
		DefaultSolver: "greedy-balance",
	})
	if err != nil {
		b.Fatal(err)
	}
	return eng
}

func benchEngineInstance() *core.Instance {
	return core.NewInstance(
		[]float64{0.9, 0.3, 0.5, 0.7, 0.2, 0.8},
		[]float64{0.2, 0.2, 0.2, 0.6},
		[]float64{0.6, 0.6, 0.4},
	)
}

// BenchmarkEngineSolveFresh measures the full pipeline without a cache:
// admission, solve, execution, telemetry assembly.
func BenchmarkEngineSolveFresh(b *testing.B) {
	eng := benchEngine(b, nil)
	inst := benchEngineInstance()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Solve(ctx, Request{Instance: inst}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineSolveCacheHit measures the pipeline's replay path: the
// request is answered from the memo cache, so the cost is fingerprinting
// plus telemetry assembly.
func BenchmarkEngineSolveCacheHit(b *testing.B) {
	eng := benchEngine(b, solver.NewCache(4, 64))
	inst := benchEngineInstance()
	ctx := context.Background()
	if _, err := eng.Solve(ctx, Request{Instance: inst}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eng.Solve(ctx, Request{Instance: inst})
		if err != nil {
			b.Fatal(err)
		}
		if res.Telemetry.Source == string(solver.SourceSolve) {
			b.Fatal("expected a cache hit")
		}
	}
}

// BenchmarkEngineSolveCacheHitPrehashed is the cache-hit path when the
// caller supplies the fingerprint (as the job manager does).
func BenchmarkEngineSolveCacheHitPrehashed(b *testing.B) {
	eng := benchEngine(b, solver.NewCache(4, 64))
	inst := benchEngineInstance()
	fp := inst.Fingerprint()
	ctx := context.Background()
	if _, err := eng.Solve(ctx, Request{Instance: inst}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Solve(ctx, Request{Instance: inst, Fingerprint: &fp}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineSolveEachCacheHitPrehashed is the batch replay counterpart
// of BenchmarkEngineSolveCacheHitPrehashed: every instance's fingerprint is
// computed once at the batch split (SolveEach hashes before submitting, and
// the memoised fingerprint makes later calls free), so the per-shard cache
// route never re-hashes.
func BenchmarkEngineSolveEachCacheHitPrehashed(b *testing.B) {
	eng := benchEngine(b, solver.NewCache(4, 256))
	insts := make([]*core.Instance, 16)
	for i := range insts {
		insts[i] = core.NewInstance([]float64{float64(i+1) / 20, 0.5}, []float64{0.25})
		insts[i].Fingerprint() // memoise, as the batch split does
	}
	ctx := context.Background()
	eng.SolveEach(ctx, "", "", insts, 8) // warm the cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		outcomes := eng.SolveEach(ctx, "", "", insts, 8)
		for _, out := range outcomes {
			if out.Err != nil {
				b.Fatal(out.Err)
			}
			if out.Result.Telemetry.Source == string(solver.SourceSolve) {
				b.Fatal("expected a cache hit")
			}
		}
	}
}

// BenchmarkAdmissionUncontended measures one uncontended acquire/release
// pair of the fair scheduler — the cost every fresh solve pays even when the
// system is idle, gated by benchdiff in CI.
func BenchmarkAdmissionUncontended(b *testing.B) {
	sem := newFairScheduler(16, nil, 0)
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := sem.Acquire(ctx, ""); err != nil {
			b.Fatal(err)
		}
		sem.Release("")
	}
}

// BenchmarkAdmissionMultiTenant measures the uncontended acquire/release
// pair when the request names a configured (non-default) tenant — the lookup
// plus quota bookkeeping on top of the base path.
func BenchmarkAdmissionMultiTenant(b *testing.B) {
	sem := newFairScheduler(16, map[string]TenantConfig{
		"gold": {Weight: 3, MaxInflight: 12},
		"free": {Weight: 1, MaxInflight: 4, Priority: 1},
	}, 0)
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := sem.Acquire(ctx, "gold"); err != nil {
			b.Fatal(err)
		}
		sem.Release("gold")
	}
}

// BenchmarkSolveEach measures the batch fan-out over a cached corpus.
func BenchmarkSolveEach(b *testing.B) {
	eng := benchEngine(b, solver.NewCache(4, 256))
	insts := make([]*core.Instance, 16)
	for i := range insts {
		insts[i] = core.NewInstance([]float64{float64(i+1) / 20, 0.5}, []float64{0.25})
	}
	ctx := context.Background()
	eng.SolveEach(ctx, "", "", insts, 8) // warm the cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		outcomes := eng.SolveEach(ctx, "", "", insts, 8)
		for _, out := range outcomes {
			if out.Err != nil {
				b.Fatal(out.Err)
			}
		}
	}
}
