package service

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"crsharing/internal/algo/bruteforce"
	"crsharing/internal/core"
	"crsharing/internal/engine"
	"crsharing/internal/solver"
)

// TestSolveZeroRequirementJobs sends the two instances whose trailing
// zero-requirement job GreedyBalance once left unfinished, which made the
// greedy-seeded anytime tier and branch-and-bound fail with it. Under the
// default portfolio and under branch-and-bound both must answer 200 with a
// schedule that finishes every job at the optimal makespan.
func TestSolveZeroRequirementJobs(t *testing.T) {
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

	insts := []*core.Instance{
		core.NewInstance([]float64{0.5, 0}, []float64{0.5}),
		core.NewInstance([]float64{0.6509}, []float64{0.1274, 0.6667, 0}),
	}
	for _, name := range []string{"portfolio", "branch-and-bound"} {
		for i, inst := range insts {
			resp, body := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Instance: inst, Solver: name, IncludeSchedule: true})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s, instance %d: status %d: %s", name, i, resp.StatusCode, body)
			}
			var out SolveResponse
			if err := json.Unmarshal(body, &out); err != nil {
				t.Fatal(err)
			}
			res, err := core.Execute(inst, out.Schedule)
			if err != nil {
				t.Fatalf("%s, instance %d: invalid schedule: %v", name, i, err)
			}
			if !res.Finished() || res.Makespan() != out.Makespan {
				t.Fatalf("%s, instance %d: schedule finished=%v makespan %d, response says %d", name, i, res.Finished(), res.Makespan(), out.Makespan)
			}
			opt, err := bruteforce.Makespan(inst)
			if err != nil {
				t.Fatal(err)
			}
			if out.Makespan != opt {
				t.Fatalf("%s, instance %d: makespan %d, optimum %d", name, i, out.Makespan, opt)
			}
		}
	}
}
