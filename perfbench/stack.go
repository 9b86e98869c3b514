package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"strings"
	"time"

	"crsharing"
	"crsharing/internal/engine"
	"crsharing/internal/jobs"
	"crsharing/internal/router"
	"crsharing/internal/service"
	"crsharing/internal/solver"
)

// The server is wired exactly as cmd/crserved wires it, with crserved's
// flag defaults; the fleet router as cmd/crrouter wires it, with its
// defaults. Keep these in step with those commands.
const (
	servedSolver         = "portfolio"
	servedCacheShards    = 16
	servedCacheCapacity  = 4096
	servedDefaultTimeout = 30 * time.Second
	servedMaxTimeout     = 2 * time.Minute
	servedMaxBatch       = 1024
	servedMaxConcurrent  = 16
	servedWorkers        = 4
	servedQueue          = 256
	servedJobTimeout     = 10 * time.Minute
	servedJobMaxTimeout  = time.Hour
	servedJobRetention   = 4096
	servedShedRetry      = time.Second

	routerVNodes        = 64
	routerProbeInterval = time.Second
	routerFailAfter     = 3
)

// configLine describes the server configuration for the run header.
func configLine() string {
	return fmt.Sprintf("solver=%s max_concurrent=%d job_workers=%d job_queue=%d cache=%d/%d shards "+
		"default_timeout=%s max_timeout=%s max_batch=%d router_vnodes=%d router_probe=%s router_fail_after=%d",
		servedSolver, servedMaxConcurrent, servedWorkers, servedQueue, servedCacheCapacity, servedCacheShards,
		servedDefaultTimeout, servedMaxTimeout, servedMaxBatch, routerVNodes, routerProbeInterval, routerFailAfter)
}

// node is one crserved-equivalent backend listening on loopback.
type node struct {
	cache *solver.Cache
	eng   *engine.Engine
	jobs  *jobs.Manager
	http  *http.Server
	url   string
}

// stack is the system under test: one node, or two nodes behind a router.
type stack struct {
	nodes  []*node
	router *router.Router
	front  *http.Server    // the router's listener, when there is a router
	fleet  *http.Transport // the router's and the peer fill's, resolving fleetNames
	url    string          // where the benchmark client sends
}

// listen opens a fresh loopback port.
func listen() (net.Listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	return ln, nil
}

// serveOn starts an HTTP server for h on ln.
func serveOn(ln net.Listener, h http.Handler) *http.Server {
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	go srv.Serve(ln) // returns http.ErrServerClosed once close stops it
	return srv
}

// serve starts an HTTP server for h on a fresh loopback port.
func serve(h http.Handler) (*http.Server, string, error) {
	ln, err := listen()
	if err != nil {
		return nil, "", err
	}
	return serveOn(ln, h), "http://" + ln.Addr().String(), nil
}

// The fleet's backends are known to the router, and to each other, by
// fixed names rather than by their loopback ports. The router's hash ring
// is built from these names, so which backend owns an instance depends on
// the instance alone, and fleetSet can fix the share of the working set
// the drained backend owns. fleetTransport resolves the names.
var fleetNames = []string{"http://crserved-0.fleet", "http://crserved-1.fleet"}

// fleetTransport is http.DefaultTransport, which the router and the peer
// fill use by default, with each fleet name dialled at addrs[i].
func fleetTransport(addrs []string) *http.Transport {
	hosts := make(map[string]string, len(addrs))
	for i, a := range addrs {
		hosts[strings.TrimPrefix(fleetNames[i], "http://")+":80"] = a
	}
	tr := http.DefaultTransport.(*http.Transport).Clone()
	dial := tr.DialContext
	tr.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		if a, ok := hosts[addr]; ok {
			addr = a
		}
		return dial(ctx, network, addr)
	}
	return tr
}

// fleetClient is the HTTP client a fleet member sends with: tr, under the
// span recorder of layer l in the traced run.
func fleetClient(tr http.RoundTripper, t *tracer, l layer) *http.Client {
	if t != nil {
		tr = &traceTransport{t: t, layer: l, next: tr}
	}
	return &http.Client{Transport: tr}
}

// newNode builds a backend the way crserved does, serving on ln; peer, when
// non-nil, is its peer-fill client. t, when non-nil, adds the traced run's
// span recorders around the handler, the peer client and every registry
// solver.
func newNode(t *tracer, ln net.Listener, peer *http.Client) (*node, error) {
	reg := solver.Default()
	if t != nil {
		reg = tracedRegistry(reg, t)
	}
	cache := solver.NewCache(servedCacheShards, servedCacheCapacity)
	eng, err := engine.New(engine.Config{
		Registry:       reg,
		Cache:          cache,
		DefaultSolver:  servedSolver,
		DefaultTimeout: servedDefaultTimeout,
		MaxTimeout:     servedMaxTimeout,
		MaxConcurrent:  servedMaxConcurrent,
		ShedRetryAfter: servedShedRetry,
	})
	if err != nil {
		return nil, err
	}
	mgr, err := jobs.New(jobs.Config{
		Engine:         eng,
		DefaultSolver:  servedSolver,
		Workers:        servedWorkers,
		QueueDepth:     servedQueue,
		DefaultTimeout: servedJobTimeout,
		MaxTimeout:     servedJobMaxTimeout,
		MaxRecords:     servedJobRetention,
	})
	if err != nil {
		eng.Close()
		return nil, err
	}
	cfg := service.Config{Engine: eng, MaxBatch: servedMaxBatch, Jobs: mgr, Version: crsharing.Version, PeerClient: peer}
	if peer == nil && t != nil {
		cfg.PeerClient = fleetClient(http.DefaultTransport, t, layerPeerFill)
	}
	srv, err := service.New(cfg)
	if err != nil {
		closeNode(&node{eng: eng, jobs: mgr})
		return nil, err
	}
	var h http.Handler = srv.Handler()
	if t != nil {
		h = traceHandler(t, layerHandler, h)
	}
	return &node{cache: cache, eng: eng, jobs: mgr, http: serveOn(ln, h), url: "http://" + ln.Addr().String()}, nil
}

func closeNode(n *node) {
	if n.http != nil {
		n.http.Close()
	}
	n.eng.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	n.jobs.Close(ctx) // cancels whatever is still running; nothing to report
}

// newStack builds the system under test: fleet adds a second backend and a
// router in front of both, all of them addressing the backends by
// fleetNames.
func newStack(t *tracer, fleet bool) (*stack, error) {
	count := 1
	if fleet {
		count = 2
	}
	st := &stack{}
	var lns []net.Listener
	var addrs []string
	for range count {
		ln, err := listen()
		if err != nil {
			for _, l := range lns {
				l.Close()
			}
			return nil, err
		}
		lns, addrs = append(lns, ln), append(addrs, ln.Addr().String())
	}
	var peer *http.Client
	if fleet {
		st.fleet = fleetTransport(addrs)
		peer = fleetClient(st.fleet, t, layerPeerFill)
	}
	for i, ln := range lns {
		n, err := newNode(t, ln, peer)
		if err != nil {
			for _, l := range lns[i:] {
				l.Close()
			}
			st.close()
			return nil, err
		}
		st.nodes = append(st.nodes, n)
	}
	if !fleet {
		st.url = st.nodes[0].url
		return st, nil
	}
	rt, err := router.New(router.Config{
		Backends:      fleetNames,
		VNodes:        routerVNodes,
		ProbeInterval: routerProbeInterval,
		FailAfter:     routerFailAfter,
		Client:        fleetClient(st.fleet, t, layerRouterClient),
	})
	if err != nil {
		st.close()
		return nil, err
	}
	rt.Start()
	st.router = rt
	var h http.Handler = rt.Handler()
	if t != nil {
		h = traceHandler(t, layerRouter, h)
	}
	if st.front, st.url, err = serve(h); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

// close stops every server, the router's probes, the engines and the job
// workers, and waits for them.
func (st *stack) close() {
	if st.front != nil {
		st.front.Close()
	}
	if st.router != nil {
		st.router.Close()
	}
	for _, n := range st.nodes {
		closeNode(n)
	}
	if st.fleet != nil {
		st.fleet.CloseIdleConnections()
	}
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
}

// cacheStats sums the memo-cache counters of every backend.
func (st *stack) cacheStats() solver.CacheStats {
	var sum solver.CacheStats
	for _, n := range st.nodes {
		s := n.cache.Stats()
		sum.Hits += s.Hits
		sum.Misses += s.Misses
		sum.Coalesced += s.Coalesced
		sum.Evictions += s.Evictions
		sum.Entries += s.Entries
	}
	return sum
}
