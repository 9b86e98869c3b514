package router

import (
	"net/http"
	"sync/atomic"

	"crsharing/internal/promtext"
)

// routerMetrics holds the router's own counters and gauges, distinct from the
// backends' crsharing_* series so a scrape that sums the fleet (the harness
// does) never double-counts: the router adds routing-level accounting on top,
// it does not mirror backend work.
type routerMetrics struct {
	requests       atomic.Uint64 // every request the router accepted
	routedSolve    atomic.Uint64
	routedBatch    atomic.Uint64
	routedJobs     atomic.Uint64
	forwardedOwner atomic.Uint64 // requests routed to a non-owner, owner header set
	batchSplits    atomic.Uint64 // batches split across >1 backend
	retries        atomic.Uint64 // transport errors retried on another backend
	errors         atomic.Uint64 // requests the router answered 5xx itself
	ejections      atomic.Uint64 // backends ejected after consecutive failures
	readmissions   atomic.Uint64 // ejected backends re-admitted by a probe

	backendsHealthy  atomic.Int64
	backendsDraining atomic.Int64
}

// handleMetrics renders the router's counters in the Prometheus text format,
// same dialect as the backends' /metrics.
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	rt.m.requests.Add(1)
	w.Header().Set("Content-Type", promtext.ContentType)
	p := promtext.Writer{W: w}
	m := &rt.m
	p.Counter("crrouter_requests_total", "Requests accepted by the router.", float64(m.requests.Load()))
	p.Counter("crrouter_routed_solve_total", "Solve requests routed by fingerprint.", float64(m.routedSolve.Load()))
	p.Counter("crrouter_routed_batch_total", "Batch requests routed (split or whole).", float64(m.routedBatch.Load()))
	p.Counter("crrouter_routed_jobs_total", "Job requests routed or located.", float64(m.routedJobs.Load()))
	p.Counter("crrouter_forwarded_owner_total", "Requests routed to a non-owner carrying the owner header.", float64(m.forwardedOwner.Load()))
	p.Counter("crrouter_batch_splits_total", "Batches split across more than one backend.", float64(m.batchSplits.Load()))
	p.Counter("crrouter_retries_total", "Transport failures retried on a different backend.", float64(m.retries.Load()))
	p.Counter("crrouter_errors_total", "Requests the router itself answered with a 5xx.", float64(m.errors.Load()))
	p.Counter("crrouter_ejections_total", "Backends ejected from the ring after consecutive failures.", float64(m.ejections.Load()))
	p.Counter("crrouter_readmissions_total", "Ejected backends re-admitted after a successful probe.", float64(m.readmissions.Load()))
	p.Gauge("crrouter_backends_healthy", "Backends currently in the owner ring.", float64(m.backendsHealthy.Load()))
	p.Gauge("crrouter_backends_draining", "Healthy backends currently draining.", float64(m.backendsDraining.Load()))
}
