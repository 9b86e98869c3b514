package service

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
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

// TestSolveOversizedInstance sends instances of a hundred bytes whose
// shortest schedule would take gigabytes, or whose step count overflows an
// int. Every registered solver must refuse them with 422 before allocating,
// and the server must keep serving afterwards.
func TestSolveOversizedInstance(t *testing.T) {
	eng, err := engine.New(engine.Config{Registry: solver.Default(), Cache: solver.NewCache(4, 64)})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Engine: eng, Version: "test"})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, size := range []string{"1e7", "1e9", "1e300"} {
		inst := `{"procs":[[{"req":1,"size":` + size + `}],[{"req":1,"size":1}]]}`
		for _, name := range eng.Registry().Names() {
			body := `{"solver":"` + name + `","instance":` + inst + `}`
			resp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			out, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusUnprocessableEntity {
				t.Fatalf("size %s, %s: status %d, want 422: %s", size, name, resp.StatusCode, out)
			}
		}
	}
	resp, body := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Instance: testInstance()})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve after the oversized requests: status %d: %s", resp.StatusCode, body)
	}
}
