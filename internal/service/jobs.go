package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"crsharing/internal/engine"
	"crsharing/internal/jobs"
)

// handleJobSubmit accepts an asynchronous solve: the instance is validated
// and queued, and 202 Accepted returns the pending job record. Unlike
// POST /v1/solve, the job's timeout is not clamped to the synchronous
// MaxTimeout — long solves are the point — but to the job manager's own
// (much larger) maximum.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	s.metrics.requestsJobs.Add(1)
	tenant, status, terr := s.tenantFor(r)
	if terr != nil {
		s.fail(w, status, terr)
		return
	}
	var req JobRequest
	if !s.decode(w, r, &req) {
		return
	}
	if req.Instance == nil {
		s.fail(w, http.StatusBadRequest, errors.New("missing instance"))
		return
	}
	timeout, err := requestTimeout(req.Timeout)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	snap, err := s.cfg.Jobs.Submit(jobs.Request{
		Solver:   req.Solver,
		Instance: req.Instance,
		Timeout:  timeout,
		Tenant:   tenant,
	})
	var shed *engine.ErrShed
	switch {
	case err == nil:
		s.respond(w, http.StatusAccepted, snap)
	case errors.As(err, &shed):
		s.failShed(w, shed)
	case errors.Is(err, jobs.ErrQueueFull):
		s.fail(w, http.StatusTooManyRequests, err)
	case errors.Is(err, jobs.ErrClosed):
		s.fail(w, http.StatusServiceUnavailable, err)
	default:
		s.fail(w, http.StatusBadRequest, err)
	}
}

// handleJobGet returns the job's current record; for done jobs this includes
// the full result with the schedule.
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	s.metrics.requestsJobs.Add(1)
	snap, err := s.cfg.Jobs.Get(r.PathValue("id"))
	if err != nil {
		s.fail(w, http.StatusNotFound, err)
		return
	}
	s.respond(w, http.StatusOK, snap)
}

// handleJobList returns every job record, optionally filtered with
// ?state=pending|running|done|failed|cancelled.
func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	s.metrics.requestsJobs.Add(1)
	state := jobs.State(r.URL.Query().Get("state"))
	if state != "" && !state.Valid() {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("invalid state filter %q", state))
		return
	}
	list := s.cfg.Jobs.List(state)
	s.respond(w, http.StatusOK, JobListResponse{Count: len(list), Jobs: list})
}

// handleJobCancel cancels the job: pending jobs terminate immediately,
// running jobs once their solver observes the cancellation. Cancelling a
// terminal job is a no-op that returns the final record.
func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	s.metrics.requestsJobs.Add(1)
	snap, err := s.cfg.Jobs.Cancel(r.PathValue("id"))
	if err != nil {
		s.fail(w, http.StatusNotFound, err)
		return
	}
	s.respond(w, http.StatusOK, snap)
}

// handleJobEvents streams the job's progress as server-sent events. Every
// message is an event named after its type ("state" or "incumbent") whose
// data line is a jobs.Event in JSON; the stream begins with a synthetic
// "state" event carrying the current state and ends when the job reaches a
// terminal state or the client disconnects.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	s.metrics.requestsJobs.Add(1)
	snap, events, unsub, err := s.cfg.Jobs.Subscribe(r.PathValue("id"))
	if err != nil {
		s.fail(w, http.StatusNotFound, err)
		return
	}
	defer unsub()
	fl, ok := w.(http.Flusher)
	if !ok {
		s.fail(w, http.StatusInternalServerError, errors.New("streaming unsupported"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	write := func(ev jobs.Event) bool {
		data, err := json.Marshal(ev)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, data); err != nil {
			return false
		}
		fl.Flush()
		return true
	}
	first := jobs.Event{Type: jobs.EventState, JobID: snap.ID, State: snap.State, Error: snap.Error}
	if snap.Result != nil {
		// A subscriber joining after completion still sees the solve
		// telemetry on its (terminal) synthetic event, matching the live
		// terminal event the manager emits.
		first.Telemetry = snap.Result.Telemetry
	}
	if !write(first) {
		return
	}
	for {
		select {
		case ev, ok := <-events:
			if !ok {
				return // terminal: the manager closed the stream
			}
			if !write(ev) {
				return
			}
		case <-r.Context().Done():
			return
		case <-s.shutdown:
			// The server is draining; end the stream so graceful shutdown
			// does not wait its full grace budget on open subscriptions.
			return
		}
	}
}
