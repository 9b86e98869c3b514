package main

import (
	"encoding/json"
	"math"
	"os"
	"strconv"
	"testing"
	"time"
)

// TestMain lets the test binary act as the reference child process, as the
// benchmark binary does.
func TestMain(m *testing.M) {
	if conns := os.Getenv(refEnv); conns != "" {
		n, _ := strconv.Atoi(conns)
		os.Exit(serveReference(max(n, 1)))
	}
	os.Exit(m.Run())
}

// benchmarkSpec is the part of ../BENCHMARK.json the program must honour.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestRunsEmitTheDeclaredMetrics drives every declared workload for one
// second, plain and traced, and checks that each run is correct and emits
// exactly the metrics BENCHMARK.json declares, with their units.
func TestRunsEmitTheDeclaredMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("drives the server for several seconds")
	}
	spec := loadSpec(t)
	for _, sw := range spec.Workloads {
		w, err := lookupWorkload(sw.Name)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := plainRun(w, 1, 1, t.TempDir())
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		traced, err := tracedRun(w, 1, 1, t.TempDir())
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		for _, run := range []struct {
			res  result
			want map[string]string
		}{
			{plain, units(spec.EndToEnd)},
			{traced, units(spec.PerLayer)},
		} {
			if !run.res.Correct || run.res.Failed != 0 || run.res.Attempted == 0 {
				t.Errorf("%s: correct=%v attempted=%d failed=%d", w.name, run.res.Correct, run.res.Attempted, run.res.Failed)
			}
			if len(run.res.Metrics) != len(run.want) {
				t.Errorf("%s: %d metrics, BENCHMARK.json declares %d", w.name, len(run.res.Metrics), len(run.want))
			}
			for name, unit := range run.want {
				if got, ok := run.res.Metrics[name]; !ok || got.Unit != unit {
					t.Errorf("%s: metric %s = %+v, want unit %s", w.name, name, got, unit)
				}
			}
		}
		// Each workload exercises the layers it exists for.
		m := traced.Metrics
		switch w.name {
		case "hot-repeat":
			expectPositive(t, w.name, m, "service.handler_us_p50", "solver.cache_hit_ratio")
		case "cold-portfolio":
			expectPositive(t, w.name, m, "algo.kernel_ms_p50", "engine.source_solve_ratio")
		case "fleet-drain":
			expectPositive(t, w.name, m, "router.handler_us_p50", "service.peer_fill_ms_p50", "service.peer_fill_ratio")
			if got := m["service.peer_fill_ratio"].Value; math.Abs(got-fleetDrainedShare) > 0.05 {
				t.Errorf("%s: peer_fill_ratio %g, want about %g", w.name, got, fleetDrainedShare)
			}
		}
		if plain.Metrics["setup_s"].Value <= 0 || plain.Metrics["throughput_rps"].Value <= 0 {
			t.Errorf("%s: non-positive set-up time or throughput: %+v", w.name, plain.Metrics)
		}
	}
}

func units(ms []struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}) map[string]string {
	out := make(map[string]string, len(ms))
	for _, m := range ms {
		out[m.Name] = m.Unit
	}
	return out
}

func expectPositive(t *testing.T, workload string, m map[string]metricValue, names ...string) {
	t.Helper()
	for _, n := range names {
		if m[n].Value <= 0 {
			t.Errorf("%s: %s = %g, want > 0", workload, n, m[n].Value)
		}
	}
}

// TestOnlineMixedTraced drives the open loop briefly and checks that the
// job, batch and warm-start layers are reached and every answer the
// service returned passes the oracle.
func TestOnlineMixedTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("drives the server for several seconds")
	}
	w, err := lookupWorkload("online-mixed")
	if err != nil {
		t.Fatal(err)
	}
	res, err := tracedRun(w, 1, 1, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	expectPositive(t, w.name, res.Metrics, "jobs.submit_us_p50", "jobs.turnaround_ms_p50",
		"engine.source_solve_ratio", "solver.cache_entries", "client.oracle_checked")
	if res.Attempted != 2*onlineRate {
		t.Errorf("attempted %d arrivals, want every one of 2x%d", res.Attempted, onlineRate)
	}
}

// TestReferenceChild starts the reference child process, measures it twice
// and checks that every figure is positive and that close waits for the
// child to exit.
func TestReferenceChild(t *testing.T) {
	ref, err := newReference(2)
	if err != nil {
		t.Fatal(err)
	}
	for range 2 {
		sp, err := ref.measure(50 * time.Millisecond)
		if err != nil {
			ref.close()
			t.Fatal(err)
		}
		if sp.rate <= 0 || sp.cpuMS <= 0 || sp.p50MS <= 0 || sp.p90MS < sp.p50MS {
			t.Errorf("reference measured %+v", sp)
		}
	}
	ref.close()
	if ref.cmd.ProcessState == nil || !ref.cmd.ProcessState.Exited() {
		t.Errorf("reference child not reaped: %v", ref.cmd.ProcessState)
	}
}
