package service

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"crsharing/internal/core"
	"crsharing/internal/engine"
	"crsharing/internal/solver"
)

// TestSolveUnsupportedInstance checks that a solver declining a valid
// instance it does not support (branch-and-bound needs unit sizes) answers
// 422, not 500 — also when the repeat is replayed from the negative cache.
func TestSolveUnsupportedInstance(t *testing.T) {
	inst := &core.Instance{Procs: [][]core.Job{{{Req: 0.5, Size: 2}}, {core.UnitJob(0.5)}}}
	for _, negTTL := range []time.Duration{0, time.Minute} {
		cache := solver.NewCache(4, 64)
		cache.SetNegativeTTL(negTTL)
		eng, err := engine.New(engine.Config{Registry: solver.Default(), Cache: cache})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := New(Config{Engine: eng, Version: "test"})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		for i := 0; i < 2; i++ {
			resp, body := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Instance: inst, Solver: "branch-and-bound"})
			if resp.StatusCode != http.StatusUnprocessableEntity {
				t.Fatalf("negative TTL %v, request %d: status %d, want 422: %s", negTTL, i, resp.StatusCode, body)
			}
		}
		ts.Close()
		wantNeg := uint64(0)
		if negTTL > 0 {
			wantNeg = 1
		}
		if got := cache.Stats().NegativeHits; got != wantNeg {
			t.Fatalf("negative TTL %v: %d negative hits, want %d", negTTL, got, wantNeg)
		}
	}
}
