package service

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"crsharing/internal/core"
	"crsharing/internal/jobs"
)

// wireKeys decodes a JSON object and returns the sorted keys of the object
// reached by following path through nested objects.
func wireKeys(t *testing.T, raw []byte, path ...string) []string {
	t.Helper()
	var obj map[string]any
	if err := json.Unmarshal(raw, &obj); err != nil {
		t.Fatalf("decoding %s: %v", raw, err)
	}
	for _, p := range path {
		next, ok := obj[p].(map[string]any)
		if !ok {
			t.Fatalf("no object at %q in %s", p, raw)
		}
		obj = next
	}
	keys := make([]string, 0, len(obj))
	for k := range obj {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

func checkWireKeys(t *testing.T, what string, got, want []string) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s keys changed:\n got  %v\n want %v", what, got, want)
	}
}

// lastSSEData returns the data line of the last event of a job's stream,
// which the server closes after the terminal event.
func lastSSEData(t *testing.T, url string) []byte {
	t.Helper()
	client := &http.Client{Timeout: 30 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var last string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if data, ok := strings.CutPrefix(sc.Text(), "data: "); ok {
			last = data
		}
	}
	if last == "" {
		t.Fatalf("stream %s carried no events", url)
	}
	return []byte(last)
}

// The key sets below are the wire format of the solve response, the job
// record and the SSE terminal event. Clients decode them by name, so a change
// to any list is an API change.
var (
	wireTelemetryKeys = []string{
		"algorithm", "allocs_per_node", "elapsed_ms", "incumbents", "kernel_allocs",
		"lower_bound", "lower_bound_kind", "makespan", "nodes", "properties",
		"queue_ms", "ratio", "solver", "source", "steps", "tenant", "wasted",
	}
	wireSolveKeys = []string{
		"algorithm", "elapsed_ms", "fingerprint", "lower_bound", "makespan",
		"properties", "ratio", "schedule", "solver", "source", "telemetry", "wasted",
	}
	wireJobKeys = []string{
		"fingerprint", "finished", "id", "incumbents", "result", "solver",
		"started", "state", "submitted", "tenant",
	}
	wireJobResultKeys = []string{
		"algorithm", "elapsed_ms", "lower_bound", "makespan", "properties",
		"ratio", "schedule", "source", "telemetry", "wasted",
	}
	wireEventKeys = []string{"job_id", "state", "telemetry", "type"}
	// wireBatchRowKeys is the least a solved batch row carries; a zero
	// waste may be omitted.
	wireBatchRowKeys = []string{
		"algorithm", "elapsed_ms", "index", "makespan", "source", "telemetry",
	}
)

// TestWireKeys pins the JSON keys of /v1/solve, a done job record, the SSE
// terminal event and a solved batch row.
func TestWireKeys(t *testing.T) {
	_, ts := newJobsServer(t, &slowSolver{ticks: 1, tick: time.Millisecond}, nil)

	resp, body := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Instance: testInstance(), IncludeSchedule: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve status %d: %s", resp.StatusCode, body)
	}
	checkWireKeys(t, "solve", wireKeys(t, body), wireSolveKeys)
	checkWireKeys(t, "solve telemetry", wireKeys(t, body, "telemetry"), wireTelemetryKeys)

	resp, body = postJSON(t, ts.URL+"/v1/jobs", JobRequest{Instance: core.NewInstance([]float64{0.4, 0.6}, []float64{0.9})})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job submit status %d: %s", resp.StatusCode, body)
	}
	var submitted jobs.Snapshot
	if err := json.Unmarshal(body, &submitted); err != nil {
		t.Fatal(err)
	}
	event := lastSSEData(t, ts.URL+"/v1/jobs/"+submitted.ID+"/events")
	checkWireKeys(t, "terminal event", wireKeys(t, event), wireEventKeys)
	checkWireKeys(t, "terminal event telemetry", wireKeys(t, event, "telemetry"), wireTelemetryKeys)

	get, err := http.Get(ts.URL + "/v1/jobs/" + submitted.ID)
	if err != nil {
		t.Fatal(err)
	}
	record, err := io.ReadAll(get.Body)
	get.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	checkWireKeys(t, "job record", wireKeys(t, record), wireJobKeys)
	checkWireKeys(t, "job result", wireKeys(t, record, "result"), wireJobResultKeys)
	checkWireKeys(t, "job result telemetry", wireKeys(t, record, "result", "telemetry"), wireTelemetryKeys)

	resp, body = postJSON(t, ts.URL+"/v1/batch-solve", BatchRequest{Instances: []*core.Instance{testInstance()}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, body)
	}
	var batch struct {
		Results []json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(body, &batch); err != nil || len(batch.Results) != 1 {
		t.Fatalf("batch body %s: %v", body, err)
	}
	row := wireKeys(t, batch.Results[0])
	for _, k := range wireBatchRowKeys {
		if !slices.Contains(row, k) {
			t.Errorf("solved batch row lost key %q: %v", k, row)
		}
	}
}
