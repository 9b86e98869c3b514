package service

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"crsharing/internal/jobs"
	"crsharing/internal/solver"
)

// openTestNode opens a node from cfg behind an httptest listener; closeNode
// drains the listener, then closes the node.
func openTestNode(t *testing.T, cfg NodeConfig) (node *Node, ts *httptest.Server, closeNode func()) {
	t.Helper()
	node, err := OpenNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts = httptest.NewServer(node.Server.Handler())
	var closed bool
	closeNode = func() {
		if closed {
			return
		}
		closed = true
		ts.Close()
		if err := node.Close(context.Background()); err != nil {
			t.Errorf("node close: %v", err)
		}
	}
	t.Cleanup(closeNode)
	return node, ts, closeNode
}

// solveSource posts testInstance to /v1/solve and returns the answer's
// source.
func solveSource(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, body := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Instance: testInstance()})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve status %d: %s", resp.StatusCode, body)
	}
	var sr SolveResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	return sr.Source
}

// TestNodeRestartKeepsCacheAndJobs walks crserved's lifecycle: a node with a
// cache dir and a job store solves one instance and finishes one job, is
// closed, and a node reopened on the same dirs restores the evaluation,
// answers the repeat from the cache and still serves the finished job.
func TestNodeRestartKeepsCacheAndJobs(t *testing.T) {
	dir := t.TempDir()
	cfg := DefaultNodeConfig()
	cfg.DefaultSolver = "greedy-balance"
	cfg.CacheDir = filepath.Join(dir, "cache")
	cfg.StoreDir = filepath.Join(dir, "jobs")

	node, ts, closeNode := openTestNode(t, cfg)
	if got := solveSource(t, ts); got != string(solver.SourceSolve) {
		t.Fatalf("first solve source %q, want %q", got, solver.SourceSolve)
	}
	resp, body := postJSON(t, ts.URL+"/v1/jobs", JobRequest{Instance: testInstance()})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", resp.StatusCode, body)
	}
	var snap jobs.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if done, err := node.Jobs.Wait(ctx, snap.ID); err != nil || done.State != jobs.StateDone {
		t.Fatalf("job ended %q (%v), want done", done.State, err)
	}
	closeNode()

	node, ts, _ = openTestNode(t, cfg)
	if node.CacheLoad.Restored < 1 {
		t.Fatalf("restored %d evaluations, want at least 1", node.CacheLoad.Restored)
	}
	if got := solveSource(t, ts); got != string(solver.SourceCache) {
		t.Fatalf("repeat solve source %q, want %q", got, solver.SourceCache)
	}
	if got := getJob(t, ts, snap.ID); got.State != jobs.StateDone {
		t.Fatalf("restored job state %q, want done", got.State)
	}
}

// TestNodeZeroCapacityAndQueue checks crserved's off switches: cache
// capacity 0 builds a node without a memo cache, and queue depth 0 one
// without the job API.
func TestNodeZeroCapacityAndQueue(t *testing.T) {
	cfg := DefaultNodeConfig()
	cfg.DefaultSolver = "greedy-balance"
	cfg.CacheCapacity = 0
	cfg.CacheDir = t.TempDir() // ignored without a cache
	cfg.QueueDepth = 0

	node, ts, _ := openTestNode(t, cfg)
	if node.Engine.Cache() != nil {
		t.Fatal("capacity 0 built a cache")
	}
	if node.Jobs != nil {
		t.Fatal("queue 0 built a job manager")
	}
	for i := 0; i < 2; i++ {
		if got := solveSource(t, ts); got != string(solver.SourceSolve) {
			t.Fatalf("solve %d source %q, want %q", i, got, solver.SourceSolve)
		}
	}
	if resp, body := postJSON(t, ts.URL+"/v1/jobs", JobRequest{Instance: testInstance()}); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("job submit status %d (%s), want 404", resp.StatusCode, body)
	}
}
