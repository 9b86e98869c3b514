package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"crsharing/internal/core"
	"crsharing/internal/service"
	"crsharing/internal/solver"
)

// metric is one named, unit-carrying number of the report.
type metric struct {
	name, unit string
	value      float64
}

// maxMicroSamples bounds how many of a run's payloads the per-call layer
// timings (decode, encode, validate, fingerprint, execute, warm hint) use.
const maxMicroSamples = 256

// microMedian times f on each of n inputs and returns the median call time
// in microseconds.
func microMedian(n int, f func(i int)) float64 {
	n = min(n, maxMicroSamples)
	if n == 0 {
		return 0
	}
	us := make([]float64, n)
	for i := range us {
		start := time.Now()
		f(i)
		us[i] = float64(time.Since(start)) / float64(time.Microsecond)
	}
	return median(us)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// tail returns the p99 of xs when enough samples support it, else the
// highest percentile they do support (0 for none).
func tail(xs []float64) float64 {
	q := min(99, tailPercentile(len(xs)))
	if q == 0 {
		return 0
	}
	return percentile(sortedCopy(xs), q)
}

// perLayer derives the per-layer metrics from the traced phase, its spans
// and the untraced phase of the same seed. st is the traced phase's stack,
// still running.
func perLayer(w workload, plain, traced *phase, t *tracer, st *stack, dir string) ([]metric, error) {
	var m []metric
	add := func(name, unit string, v float64) { m = append(m, metric{name, unit, v}) }
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

	// Per-request self time of every layer, from the spans.
	self := make(map[layer][]float64)
	var handlerDur, routerDur, peerDur, kernelMS, queueMS []float64
	// accountedSum adds up every layer's self time, the admission wait and
	// the transport; it equals clientSum when the spans nest as
	// childLayers says and cover each round trip.
	var kernelSum, clientSum, accountedSum time.Duration
	var handlers, fills, portfolios, deadlines int
	backendCalls := make(map[string]int)
	for id, spans := range t.byRequest() {
		byLayer := make(map[layer][]span)
		for _, s := range spans {
			byLayer[s.layer] = append(byLayer[s.layer], s)
		}
		for _, k := range byLayer[layerKernel] {
			kernelMS = append(kernelMS, ms(k.dur()))
			if k.portfolio {
				portfolios++
				if k.deadline {
					deadlines++
				}
			}
		}
		if id == 0 {
			continue // kernel spans no request could be attributed to
		}
		var queue time.Duration
		sums := make(map[layer]time.Duration)
		for l, ss := range byLayer {
			var children []span
			for _, c := range childLayers[l] {
				children = append(children, byLayer[c]...)
			}
			for _, s := range ss {
				sums[l] += selfTime(s, children)
				switch l {
				case layerClient:
					if s.kind == callSolve && s.body >= 0 {
						if tel := traced.verdicts[s.body].tels; len(tel) == 1 && tel[0] != nil {
							queue += time.Duration(tel[0].QueueMS * float64(time.Millisecond))
						}
					}
				case layerHandler:
					handlers++
					handlerDur = append(handlerDur, us(s.dur()))
				case layerRouter:
					routerDur = append(routerDur, us(s.dur()))
				case layerRouterClient:
					backendCalls[s.backend]++
				case layerPeerFill:
					fills++
					peerDur = append(peerDur, ms(s.dur()))
				}
			}
		}
		clients := byLayer[layerClient]
		if len(clients) == 0 {
			continue
		}
		sums[layerHandler] = max(0, sums[layerHandler]-queue)
		sums[layerQueue] = queue
		for _, l := range []layer{layerClient, layerRouter, layerRouterClient, layerHandler, layerQueue, layerPeerFill, layerFillHandler, layerKernel} {
			self[l] = append(self[l], us(sums[l]))
			accountedSum += sums[l]
		}
		for _, c := range clients {
			clientSum += c.dur()
		}
		for _, k := range byLayer[layerKernel] {
			kernelSum += k.dur()
		}
	}

	// Payload and answer statistics, weighted by the attempts that got them.
	var reqBytes, respBytes, answered float64
	sources := make(map[string]float64)
	var telemetries float64
	var fresh, warm, lbMet, nodes float64
	var solveAnswers []*answer
	var insts []*core.Instance
	for i := range traced.answers {
		a, v := &traced.answers[i], traced.verdicts[i]
		if !v.ok() {
			continue
		}
		n := float64(a.n)
		answered += n
		reqBytes += n * float64(len(a.request.body))
		respBytes += n * float64(a.size)
		if a.kind == callSolve {
			solveAnswers = append(solveAnswers, a)
		}
		insts = append(insts, a.insts...)
		for _, tel := range v.tels {
			if tel == nil {
				continue
			}
			sources[tel.Source] += n
			telemetries += n
			if tel.Source != string(solver.SourceSolve) {
				continue
			}
			fresh++
			queueMS = append(queueMS, tel.QueueMS)
			nodes += float64(tel.Nodes)
			if tel.WarmStart != "" {
				warm++
			}
			if tel.Makespan == tel.LowerBound {
				lbMet++
			}
		}
	}

	// Per-call timings of the layers' public functions on this run's own
	// payloads, off the clock.
	solveAnswers = solveAnswers[:min(len(solveAnswers), maxMicroSamples)]
	decoded := make([]service.SolveResponse, len(solveAnswers))
	for i, a := range solveAnswers {
		body, err := a.body()
		if err != nil {
			return nil, err
		}
		if err := json.Unmarshal(body, &decoded[i]); err != nil {
			return nil, fmt.Errorf("decoding a checked answer: %w", err)
		}
	}
	decodeUS := microMedian(len(solveAnswers), func(i int) {
		var req service.SolveRequest
		json.Unmarshal(solveAnswers[i].request.body, &req) // sent and answered, so it decodes
	})
	encodeUS := microMedian(len(decoded), func(i int) { json.Marshal(&decoded[i]) })
	validateUS := microMedian(len(insts), func(i int) { insts[i].Validate() })
	fingerprintUS := microMedian(len(insts), func(i int) { insts[i].Fingerprint() })
	executeUS := microMedian(len(decoded), func(i int) { core.Execute(solveAnswers[i].insts[0], decoded[i].Schedule) })
	hintSolver := servedSolver
	if w.open {
		hintSolver = onlineSolver
	}
	warmHintUS := microMedian(len(insts), func(i int) { st.nodes[0].cache.WarmHint(hintSolver, insts[i]) })
	flushMS, loadMS, snapBytes, err := persistTimings(st.nodes[0].cache, dir)
	if err != nil {
		return nil, err
	}

	backendMax := 0
	backendAll := 0
	for _, n := range backendCalls {
		backendMax = max(backendMax, n)
		backendAll += n
	}
	cache := traced.cache
	lookups := float64(cache.Hits + cache.Misses + cache.Coalesced)

	add("service.handler_us_p50", "us", median(handlerDur))
	add("service.handler_self_us_p50", "us", median(self[layerHandler]))
	add("service.transport_us_p50", "us", median(self[layerClient]))
	add("service.decode_us", "us", decodeUS)
	add("service.encode_us", "us", encodeUS)
	add("service.req_bytes", "bytes", ratio(reqBytes, answered))
	add("service.resp_bytes", "bytes", ratio(respBytes, answered))
	add("service.allocs_per_req", "count", ratio(float64(plain.mallocs), float64(plain.attempted)))
	add("core.validate_us", "us", validateUS)
	add("core.fingerprint_us", "us", fingerprintUS)
	add("core.execute_us", "us", executeUS)
	add("solver.cache_hit_ratio", "ratio", ratio(float64(cache.Hits), lookups))
	add("solver.cache_evictions", "count", float64(cache.Evictions))
	add("solver.cache_entries", "count", float64(cache.Entries))
	add("solver.warm_hint_us", "us", warmHintUS)
	add("solver.warm_start_ratio", "ratio", ratio(warm, fresh))
	add("solver.lb_met_ratio", "ratio", ratio(lbMet, fresh))
	add("solver.portfolio_deadline_ratio", "ratio", ratio(float64(deadlines), float64(portfolios)))
	add("algo.kernel_ms_p50", "ms", median(kernelMS))
	add("algo.kernel_ms_p90", "ms", percentile(sortedCopy(kernelMS), 90))
	add("algo.nodes_per_solve", "count", ratio(nodes, fresh))
	add("algo.kernel_share", "ratio", ratio(float64(kernelSum), float64(clientSum)))
	add("engine.queue_ms_p99", "ms", tail(queueMS))
	add("engine.shed_ratio", "ratio", ratio(float64(traced.shed), float64(traced.attempted)))
	add("engine.source_cache_ratio", "ratio", ratio(sources[string(solver.SourceCache)], telemetries))
	add("engine.source_coalesced_ratio", "ratio", ratio(sources[string(solver.SourceCoalesced)], telemetries))
	add("engine.source_solve_ratio", "ratio", ratio(sources[string(solver.SourceSolve)], telemetries))
	add("jobs.submit_us_p50", "us", median(inUnits(traced.submits, time.Microsecond)))
	add("jobs.turnaround_ms_p50", "ms", median(inUnits(traced.turnarounds, time.Millisecond)))
	add("router.handler_us_p50", "us", median(routerDur))
	add("router.self_us_p50", "us", median(self[layerRouter]))
	add("router.backend_share_max", "ratio", ratio(float64(backendMax), float64(backendAll)))
	add("service.peer_fill_ms_p50", "ms", median(peerDur))
	add("service.peer_fill_ratio", "ratio", ratio(float64(fills), float64(handlers)))
	add("solver.persist_flush_ms", "ms", flushMS)
	add("solver.persist_load_ms", "ms", loadMS)
	add("solver.snapshot_bytes", "bytes", snapBytes)
	add("client.lateness_ms_p99", "ms", tail(traced.lateness))
	add("client.conns_max", "count", float64(max(plain.connsMax, traced.connsMax)))
	add("client.trace_overhead_ratio", "ratio", ratio(median(traced.latencies()), median(plain.latencies())))
	add("client.oracle_checked", "count", float64(len(plain.answers)+len(traced.answers)))
	add("client.accounted_ratio", "ratio", ratio(float64(accountedSum), float64(clientSum)))
	return m, nil
}

// persistTimings snapshots the cache to a new directory under parent and
// restores it into a fresh cache, timing Persister.Flush and
// Persister.Load.
func persistTimings(c *solver.Cache, parent string) (flushMS, loadMS, bytes float64, err error) {
	dir, err := os.MkdirTemp(parent, "snapshot-")
	if err != nil {
		return 0, 0, 0, fmt.Errorf("snapshot directory: %w", err)
	}
	p, err := solver.NewPersister(c, dir, time.Hour)
	if err != nil {
		return 0, 0, 0, err
	}
	start := time.Now()
	if err := p.Flush(); err != nil {
		return 0, 0, 0, fmt.Errorf("flushing the cache snapshot: %w", err)
	}
	flushMS = float64(time.Since(start)) / float64(time.Millisecond)
	files, err := p.SnapshotFiles()
	if err != nil {
		return 0, 0, 0, err
	}
	for _, f := range files {
		if fi, err := os.Stat(filepath.Join(dir, f)); err == nil {
			bytes += float64(fi.Size())
		}
	}
	restore, err := solver.NewPersister(solver.NewCache(servedCacheShards, servedCacheCapacity), dir, time.Hour)
	if err != nil {
		return 0, 0, 0, err
	}
	start = time.Now()
	if _, err := restore.Load(); err != nil {
		return 0, 0, 0, fmt.Errorf("loading the cache snapshot: %w", err)
	}
	loadMS = float64(time.Since(start)) / float64(time.Millisecond)
	return flushMS, loadMS, bytes, nil
}
