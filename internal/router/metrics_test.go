package router

import (
	"net/http"
	"testing"

	"crsharing/internal/promtext"
)

// TestRouterMetricsExpositionFormat pins crrouter's /metrics contract with
// the rules the backends' exposition follows: the Prometheus 0.0.4 content
// type, every sample preceded by its # HELP and # TYPE lines, and every
// routing counter and gauge present with the traffic it saw.
func TestRouterMetricsExpositionFormat(t *testing.T) {
	a, b := newBackend(t, false), newBackend(t, false)
	_, rts := newRouter(t, Config{}, a, b)
	insts := testInstances(6)
	for _, inst := range insts {
		solveVia(t, rts.URL, inst)
	}

	resp, err := http.Get(rts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("Content-Type"); got != promtext.ContentType {
		t.Fatalf("content type %q, want the Prometheus 0.0.4 text format", got)
	}
	samples, err := promtext.Parse(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"crrouter_requests_total":     float64(len(insts) + 1), // the scrape counts itself
		"crrouter_routed_solve_total": float64(len(insts)),
		"crrouter_routed_batch_total": 0,
		"crrouter_routed_jobs_total":  0,
		"crrouter_backends_healthy":   2,
		"crrouter_backends_draining":  0,
	}
	for name, v := range want {
		if got, ok := samples[name]; !ok || got != v {
			t.Errorf("%s = %v (present %v), want %v", name, got, ok, v)
		}
	}
	for _, name := range []string{
		"crrouter_forwarded_owner_total",
		"crrouter_batch_splits_total",
		"crrouter_retries_total",
		"crrouter_errors_total",
		"crrouter_ejections_total",
		"crrouter_readmissions_total",
	} {
		if _, ok := samples[name]; !ok {
			t.Errorf("metric %s missing from /metrics", name)
		}
	}
}
