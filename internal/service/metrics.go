package service

import (
	"io"
	"sync/atomic"
	"time"

	"crsharing/internal/engine"
	"crsharing/internal/jobs"
	"crsharing/internal/promtext"
)

// metrics holds the server's request-level counters. Everything is atomic:
// handlers run concurrently and /metrics reads while they write. Solve-level
// accounting (sources, nodes, admission, latency histograms) lives in the
// engine, which write renders alongside.
type metrics struct {
	requestsSolve   atomic.Uint64
	requestsBatch   atomic.Uint64
	requestsJobs    atomic.Uint64
	requestsOther   atomic.Uint64
	errorsTotal     atomic.Uint64
	batchInstances  atomic.Uint64
	batchCancelled  atomic.Uint64
	deadlineExpired atomic.Uint64
	// shedTotal counts requests answered 429-with-Retry-After because a
	// tenant quota refused them (solve, fully-shed batch, or job submit).
	shedTotal atomic.Uint64
	// Peer cache-fill accounting (see peerfill.go): solves this backend
	// forwarded to the owning peer, fills this backend served on a peer's
	// behalf, and forwards that failed and fell back to a local solve.
	peerFillForwarded atomic.Uint64
	peerFillServed    atomic.Uint64
	peerFillErrors    atomic.Uint64
}

// write renders the request counters, the engine's solve telemetry (sources,
// search nodes, admission queueing and the solve latency / search-size
// histograms), the cache counters and the job manager's gauges in the
// Prometheus text exposition format (see package promtext).
func (m *metrics) write(w io.Writer, eng *engine.Engine, jm *jobs.Manager, uptime time.Duration) {
	p := promtext.Writer{W: w}
	counter := func(name, help string, v uint64) { p.Counter(name, help, float64(v)) }

	counter("crsharing_requests_solve_total", "POST /v1/solve requests.", m.requestsSolve.Load())
	counter("crsharing_requests_batch_total", "POST /v1/batch-solve requests.", m.requestsBatch.Load())
	counter("crsharing_requests_jobs_total", "Requests to the /v1/jobs endpoints.", m.requestsJobs.Load())
	counter("crsharing_requests_other_total", "Requests to the remaining endpoints.", m.requestsOther.Load())
	counter("crsharing_errors_total", "Requests answered with a non-2xx status.", m.errorsTotal.Load())
	counter("crsharing_batch_instances_total", "Instances received in batch requests.", m.batchInstances.Load())
	counter("crsharing_batch_cancelled_total", "Batch instances never attempted because the deadline expired.", m.batchCancelled.Load())
	counter("crsharing_deadline_expired_total", "Solve requests that hit their deadline.", m.deadlineExpired.Load())
	counter("crsharing_requests_shed_total", "Requests answered 429 with Retry-After because a tenant quota refused them.", m.shedTotal.Load())
	counter("crsharing_peer_fill_forwarded_total", "Cache-miss solves forwarded to the owning peer backend.", m.peerFillForwarded.Load())
	counter("crsharing_peer_fill_served_total", "Solves served on behalf of a peer backend (cache fills).", m.peerFillServed.Load())
	counter("crsharing_peer_fill_errors_total", "Peer forwards that failed and fell back to a local solve.", m.peerFillErrors.Load())
	p.Gauge("crsharing_uptime_seconds", "Seconds since the server started.", uptime.Seconds())

	snap := eng.Snapshot()
	counter("crsharing_solves_total", "Fresh solver invocations (cache misses), across every surface.", snap.SourceSolve)
	counter("crsharing_cache_served_total", "Solve requests answered from the cache or an in-flight solve.", snap.SourceCache+snap.SourceCoalesced)
	counter("crsharing_engine_source_cache_total", "Solve requests answered from the memo cache.", snap.SourceCache)
	counter("crsharing_engine_source_coalesced_total", "Solve requests coalesced onto an identical in-flight solve.", snap.SourceCoalesced)
	counter("crsharing_engine_source_negative_total", "Solve requests answered by replaying a remembered deterministic failure.", snap.SourceNegative)
	counter("crsharing_engine_errors_total", "Solve requests that failed (excluding quota sheds).", snap.Errors)
	counter("crsharing_engine_shed_total", "Solve requests refused over a tenant quota (429 material, not errors).", snap.Shed)
	counter("crsharing_engine_nodes_total", "Search nodes / configurations explored by fresh solves.", uint64(snap.NodesTotal))
	counter("crsharing_engine_incumbents_total", "Improving incumbents reported by fresh solves.", uint64(snap.IncumbentsTotal))
	p.Counter("crsharing_engine_queue_wait_seconds_total", "Total time solve requests spent waiting for admission.", snap.QueueSeconds)
	p.Gauge("crsharing_solve_inflight", "Admission weight currently held by running solves.", float64(snap.Inflight))
	p.Gauge("crsharing_engine_admission_waiting", "Solve requests queued for admission right now.", float64(snap.Waiting))
	p.Histogram("crsharing_engine_solve_duration_seconds", "Wall-clock distribution of fresh solves.", snap.SolveSeconds)
	p.Histogram("crsharing_engine_solve_nodes", "Search-size distribution (nodes / configurations) of fresh solves.", snap.SolveNodes)

	tenants := func(name, help, kind string, v func(engine.TenantSnapshot) float64) {
		rows := make(map[string]float64, len(snap.Tenants))
		for n, ts := range snap.Tenants {
			rows[n] = v(ts)
		}
		p.ByTenant(name, help, kind, rows)
	}
	tenants("crsharing_tenant_requests_total", "Solve requests finished, by tenant.", "counter", func(ts engine.TenantSnapshot) float64 { return float64(ts.Requests) })
	tenants("crsharing_tenant_shed_total", "Solve requests refused over quota, by tenant.", "counter", func(ts engine.TenantSnapshot) float64 { return float64(ts.Shed) })
	tenants("crsharing_tenant_errors_total", "Solve requests failed (excluding sheds), by tenant.", "counter", func(ts engine.TenantSnapshot) float64 { return float64(ts.Errors) })
	tenants("crsharing_tenant_queue_wait_seconds_total", "Admission wait, by tenant.", "counter", func(ts engine.TenantSnapshot) float64 { return ts.QueueSeconds })
	tenants("crsharing_tenant_inflight", "Admission weight currently held, by tenant.", "gauge", func(ts engine.TenantSnapshot) float64 { return float64(ts.Inflight) })
	tenants("crsharing_tenant_queued", "Requests waiting for admission right now, by tenant.", "gauge", func(ts engine.TenantSnapshot) float64 { return float64(ts.Queued) })

	if cache := eng.Cache(); cache != nil {
		st := cache.Stats()
		counter("crsharing_cache_hits_total", "Memo cache hits.", st.Hits)
		counter("crsharing_cache_misses_total", "Memo cache misses.", st.Misses)
		counter("crsharing_cache_coalesced_total", "Requests coalesced onto an identical in-flight solve.", st.Coalesced)
		counter("crsharing_cache_evictions_total", "LRU evictions.", st.Evictions)
		p.Gauge("crsharing_cache_entries", "Evaluations currently cached.", float64(st.Entries))
		counter("crsharing_cache_negative_hits_total", "Requests answered from the negative cache (remembered failures).", st.NegativeHits)
		p.Gauge("crsharing_cache_negative_entries", "Remembered failures currently held (expiry is lazy).", float64(st.NegativeEntries))
	}
	if jm != nil {
		st := jm.Stats()
		p.Gauge("crsharing_jobs_queue_depth", "Jobs waiting in the queue.", float64(st.QueueDepth))
		p.Gauge("crsharing_jobs_queue_capacity", "Bound of the job queue.", float64(st.QueueCapacity))
		p.Gauge("crsharing_jobs_running", "Jobs currently held by workers.", float64(st.Running))
		p.Gauge("crsharing_jobs_workers", "Size of the job worker pool.", float64(st.Workers))
		counter("crsharing_jobs_submitted_total", "Jobs accepted into the queue.", st.Submitted)
		counter("crsharing_jobs_done_total", "Jobs completed with a valid evaluation.", st.Done)
		counter("crsharing_jobs_failed_total", "Jobs that errored or exceeded their budget.", st.Failed)
		counter("crsharing_jobs_cancelled_total", "Jobs cancelled by clients or shutdown.", st.Cancelled)
	}
}
