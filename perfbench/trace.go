package main

import (
	"context"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"crsharing/internal/core"
	"crsharing/internal/service"
	"crsharing/internal/solver"
)

// The traced run records spans from the benchmark's own code around calls
// into each layer's public functions: a middleware on the handler a layer
// exports, a RoundTripper on the HTTP clients a layer accepts, and a solver
// wrapper on every registry entry. Spans are kept in memory and summarised
// when the run ends.

// layer names the boundary a span was recorded at.
type layer uint8

const (
	layerClient       layer = iota // benchmark client: send to body read
	layerRouter                    // router.Router.Handler
	layerRouterClient              // router.Config.Client: router to backend
	layerHandler                   // service.Server.Handler, client requests
	layerFillHandler               // service.Server.Handler, peer fills it serves
	layerPeerFill                  // service.Config.PeerClient: backend to owner
	layerKernel                    // a registry solver's Solve
	layerQueue                     // admission wait: telemetry.queue_ms, not a span
)

// reqHeader carries the benchmark-minted request ID across HTTP hops in the
// traced run; the untraced run never sends it.
const reqHeader = "X-Perfbench-Req"

// span is one timed interval at one layer boundary. Spans of one request
// share req; children of a span are the spans of the same request at its
// child layers (see childLayers).
type span struct {
	req        uint64
	layer      layer
	start, end time.Duration // since the tracer's epoch
	// kind and body are set on client spans: what was sent and which
	// distinct response body came back (-1 for none).
	kind callKind
	body int32
	// Kernel spans: the solver was the portfolio, and the solve ended with
	// its context done (it ran to the deadline).
	portfolio, deadline bool
	// Router client spans: the backend the request was proxied to.
	backend string
}

func (s span) dur() time.Duration { return s.end - s.start }

// childLayers lists, per layer, the layers whose spans nest directly inside
// it; a layer's self time is its span minus the time these cover.
var childLayers = map[layer][]layer{
	layerClient:       {layerRouter, layerHandler},
	layerRouter:       {layerRouterClient},
	layerRouterClient: {layerHandler},
	layerHandler:      {layerKernel, layerPeerFill},
	layerPeerFill:     {layerFillHandler},
	layerFillHandler:  {layerKernel},
}

// selfTime returns parent's duration minus the part of its interval that
// the children cover; overlapping children are counted once and parts of a
// child outside the parent not at all.
func selfTime(parent span, children []span) time.Duration {
	type interval struct{ s, e time.Duration }
	var ivs []interval
	for _, c := range children {
		s, e := max(c.start, parent.start), min(c.end, parent.end)
		if e > s {
			ivs = append(ivs, interval{s, e})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].s < ivs[j].s })
	var covered time.Duration
	cur := interval{-1, -1}
	for _, iv := range ivs {
		if iv.s > cur.e {
			covered += cur.e - cur.s
			cur = iv
			continue
		}
		cur.e = max(cur.e, iv.e)
	}
	covered += cur.e - cur.s
	return parent.dur() - covered
}

// tracer collects the spans of one traced run.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
	// byFingerprint attributes kernel spans whose context carries no
	// request ID (job workers solve under their own context) to the request
	// that submitted the instance.
	byFingerprint map[core.Fingerprint]uint64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), byFingerprint: make(map[core.Fingerprint]uint64)}
}

func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) bindFingerprint(fp core.Fingerprint, req uint64) {
	t.mu.Lock()
	t.byFingerprint[fp] = req
	t.mu.Unlock()
}

func (t *tracer) requestOf(fp core.Fingerprint) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.byFingerprint[fp]
}

// reset drops every span recorded so far.
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans = nil
	t.mu.Unlock()
}

// byRequest returns the recorded spans grouped by request ID.
func (t *tracer) byRequest() map[uint64][]span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[uint64][]span)
	for _, s := range t.spans {
		out[s.req] = append(out[s.req], s)
	}
	return out
}

type reqIDKey struct{}

func withReqID(ctx context.Context, id uint64) context.Context {
	return context.WithValue(ctx, reqIDKey{}, id)
}

func reqIDFrom(ctx context.Context) (uint64, bool) {
	id, ok := ctx.Value(reqIDKey{}).(uint64)
	return id, ok
}

// traceHandler wraps a layer's exported handler: it moves the request ID
// from the header onto the context and records the handler's span.
func traceHandler(t *tracer, l layer, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.ParseUint(r.Header.Get(reqHeader), 10, 64)
		if err != nil {
			next.ServeHTTP(w, r)
			return
		}
		lay := l
		if l == layerHandler && r.Header.Get(service.FillHeader) != "" {
			lay = layerFillHandler
		}
		start := t.now()
		next.ServeHTTP(w, r.WithContext(withReqID(r.Context(), id)))
		t.record(span{req: id, layer: lay, start: start, end: t.now()})
	})
}

// traceTransport wraps the HTTP client a layer accepts. Requests whose
// context carries a request ID get the ID header and a span that ends when
// the response body is closed; others (health probes) pass untouched.
type traceTransport struct {
	t     *tracer
	layer layer
	next  http.RoundTripper
}

func (tt *traceTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	id, ok := reqIDFrom(req.Context())
	if !ok {
		return tt.next.RoundTrip(req)
	}
	req = req.Clone(req.Context())
	req.Header.Set(reqHeader, strconv.FormatUint(id, 10))
	sp := span{req: id, layer: tt.layer, start: tt.t.now(), backend: req.URL.Host}
	resp, err := tt.next.RoundTrip(req)
	if err != nil {
		sp.end = tt.t.now()
		tt.t.record(sp)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, done: func() {
		sp.end = tt.t.now()
		tt.t.record(sp)
	}}
	return resp, nil
}

// spanBody runs done once, when the body is closed.
type spanBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// spanSolver wraps a registry solver and records one kernel span per Solve.
type spanSolver struct {
	t     *tracer
	inner solver.Solver
}

func (s *spanSolver) Name() string { return s.inner.Name() }

func (s *spanSolver) Solve(ctx context.Context, inst *core.Instance) (*core.Schedule, solver.Stats, error) {
	start := s.t.now()
	sched, st, err := s.inner.Solve(ctx, inst)
	sp := span{layer: layerKernel, start: start, end: s.t.now(),
		portfolio: s.inner.Name() == "portfolio", deadline: ctx.Err() != nil}
	id, ok := reqIDFrom(ctx)
	if !ok {
		id = s.t.requestOf(inst.Fingerprint())
	}
	sp.req = id
	s.t.record(sp)
	return sched, st, err
}

// tracedRegistry returns a registry with the same names as base whose
// solvers record kernel spans.
func tracedRegistry(base *solver.Registry, t *tracer) *solver.Registry {
	reg := solver.NewRegistry()
	for _, name := range base.Names() {
		reg.Register(name, func() solver.Solver {
			inner, err := base.New(name)
			if err != nil {
				panic(err) // base lists name, so New cannot fail
			}
			return &spanSolver{t: t, inner: inner}
		})
	}
	return reg
}
