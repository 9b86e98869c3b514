package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"time"

	"crsharing/internal/core"
	"crsharing/internal/engine"
	"crsharing/internal/harness"
	"crsharing/internal/jobs"
	"crsharing/internal/service"
	"crsharing/internal/solver"
)

// inputs are a workload's generated requests, made during set-up.
type inputs struct {
	hot      []request
	cold     *coldStream
	arrivals []arrival
}

func makeInputs(w workload, seed int64, seconds int) *inputs {
	switch {
	case w.open:
		return &inputs{arrivals: onlineArrivals(seed, seconds)}
	case w.name == "cold-portfolio":
		return &inputs{cold: newColdStream(seed)}
	case w.fleet:
		return &inputs{hot: fleetSet(seed)}
	default:
		return &inputs{hot: hotSet(seed)}
	}
}

// setUp builds the stack, makes the inputs and warms what the workload
// needs warm: the working set into the cache (through the router for the
// fleet, after which one backend is drained).
func setUp(w workload, seed int64, seconds int, t *tracer) (*stack, *inputs, error) {
	st, err := newStack(t, w.fleet)
	if err != nil {
		return nil, nil, err
	}
	in := makeInputs(w, seed, seconds)
	c := newClient(st.url, 1, nil)
	defer c.close()
	for i, r := range in.hot {
		resp, err := c.http.Post(st.url+"/v1/solve", "application/json", bytes.NewReader(r.body))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("status %d", resp.StatusCode)
			}
		}
		if err != nil {
			st.close()
			return nil, nil, fmt.Errorf("warming working-set instance %d: %w", i, err)
		}
	}
	if w.fleet && !st.router.SetDraining(fleetNames[1], true) {
		st.close()
		return nil, nil, errors.New("draining the second backend: router does not know it")
	}
	return st, in, nil
}

// windowLen is the length of the windows the timed phase is cut into. The
// rate, latency and CPU metrics are interquartile means over the windows,
// so a few seconds in which the machine is busy with something else move
// them little. In a closed loop the workload runs for the first
// windowLen-refLen of each window and the reference job for the rest.
const windowLen = time.Second

// slot is the time base of one window: how long the workload ran in it, the
// process CPU time at its two ends, and the mean of the reference rates
// measured right before and right after it (0 in the open loop, which
// cannot pause).
type slot struct {
	loaded     time.Duration
	cpu0, cpu1 cpuTimes
	ref        refSpeed
}

// refScale returns the factor that brings a figure of a window to the
// reference speed: nominal over the reference's matching figure, or 1 when
// the reference was not measured (the open loop).
func refScale(nominal, measured float64) float64 {
	if measured <= 0 {
		return 1
	}
	return nominal / measured
}

// sampleCPU reads the process CPU time at every window boundary after start
// until the returned stop function is called; stop waits for the sampler
// and returns one slot per full window.
func sampleCPU(start time.Time) (stop func() []slot) {
	ticks := []cpuTimes{readCPU()}
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for k := 1; ; k++ {
			timer := time.NewTimer(time.Until(start.Add(time.Duration(k) * windowLen)))
			select {
			case <-timer.C:
				ticks = append(ticks, readCPU())
			case <-quit:
				timer.Stop()
				return
			}
		}
	}()
	return func() []slot {
		close(quit)
		<-done
		slots := make([]slot, len(ticks)-1)
		for k := range slots {
			slots[k] = slot{loaded: windowLen, cpu0: ticks[k], cpu1: ticks[k+1]}
		}
		return slots
	}
}

// phase is the outcome of one timed phase.
type phase struct {
	answers  []answer // distinct across workers; n and inSLO summed
	verdicts []verdict

	attempted, shed int
	windows         []window // merged across workers
	slots           []slot   // the time base of each full window

	lateness             []float64 // ms
	submits, turnarounds []time.Duration
	failures             []string          // why attempts failed (a few per worker)
	mallocs              uint64            // heap allocations over the phase
	connsMax             int64             // most client connections open at once
	rssMB                float64           // peak resident set at the end of the phase
	cache                solver.CacheStats // counter deltas over the phase; Entries at its end
	workers              []*worker
}

// runPhase drives the workload against the stack for the timed phase of
// seconds windows; a closed loop measures the reference after each.
// Answers spill into files in dir until they are checked.
func runPhase(w workload, st *stack, in *inputs, ref *reference, seed int64, seconds int, t *tracer, dir string) (*phase, error) {
	c := newClient(st.url, connections(), t)
	defer c.close()
	ph := &phase{workers: make([]*worker, c.limit)}
	hashSeed := maphash.MakeSeed() // one seed, so equal bodies hash equal across workers
	for i := range ph.workers {
		wk, err := newWorker(i, c, dir, hashSeed, time.Duration(w.sloMS*float64(time.Millisecond)))
		if err != nil {
			ph.close()
			return nil, err
		}
		ph.workers[i] = wk
	}
	var next func(*worker) *request
	switch {
	case in.cold != nil:
		next = func(*worker) *request { r := in.cold.next(); return &r }
	case len(in.hot) > 0:
		draws := make([]*rand.Rand, len(ph.workers))
		for i := range draws {
			draws[i] = hotDraws(seed, i)
		}
		next = func(wk *worker) *request { return &in.hot[draws[wk.id].Intn(len(in.hot))] }
	}

	cache0 := st.cacheStats()
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	if w.open {
		start := time.Now()
		stop := sampleCPU(start)
		openLoop(ph.workers, start, in.arrivals)
		ph.slots = stop()
	} else {
		before, err := ref.measure(refLen)
		cpu0 := readCPU()
		if err == nil {
			err = closedLoop(ph.workers, seconds, windowLen-refLen, next, func(k int, loaded time.Duration) error {
				s := slot{loaded: loaded, cpu0: cpu0, cpu1: readCPU()}
				after, err := ref.measure(refLen)
				s.ref = before.mean(after)
				ph.slots = append(ph.slots, s)
				before, cpu0 = after, readCPU()
				return err
			})
		}
		if err != nil {
			ph.close()
			return nil, err
		}
	}
	ph.rssMB = peakRSSMB()
	runtime.ReadMemStats(&mem1)
	cache1 := st.cacheStats()

	ph.mallocs = mem1.Mallocs - mem0.Mallocs
	ph.connsMax = c.peak.Load()
	ph.cache = solver.CacheStats{
		Hits:      cache1.Hits - cache0.Hits,
		Misses:    cache1.Misses - cache0.Misses,
		Coalesced: cache1.Coalesced - cache0.Coalesced,
		Evictions: cache1.Evictions - cache0.Evictions,
		Entries:   cache1.Entries,
	}
	// Workers dedupe their own answers; merge the identical ones across
	// workers too, so each distinct body is checked once.
	remap := make(map[int32]int32)
	merged := make(map[uint64]int32)
	for _, wk := range ph.workers {
		if err := wk.finish(); err != nil {
			ph.close()
			return nil, err
		}
		for i, a := range wk.answers {
			idx, ok := merged[a.hash]
			if !ok {
				idx = int32(len(ph.answers))
				merged[a.hash] = idx
				ph.answers = append(ph.answers, answer{request: a.request, spill: a.spill, off: a.off, size: a.size})
			}
			ph.answers[idx].n += a.n
			ph.answers[idx].inSLO += a.inSLO
			remap[int32(wk.id<<bodyRefBits)|int32(i)] = idx
		}
		for k, win := range wk.windows {
			for len(ph.windows) <= k {
				ph.windows = append(ph.windows, window{})
			}
			ph.windows[k].attempts += win.attempts
			ph.windows[k].ok += win.ok
			ph.windows[k].lat = append(ph.windows[k].lat, win.lat...)
			ph.attempted += win.attempts
		}
		ph.shed += wk.shed
		for _, l := range wk.lateness {
			ph.lateness = append(ph.lateness, float64(l))
		}
		ph.submits = append(ph.submits, wk.submits...)
		ph.turnarounds = append(ph.turnarounds, wk.turnarounds...)
		ph.failures = append(ph.failures, wk.failures...)
	}
	if in.cold != nil {
		maxSeq := 0
		for _, a := range ph.answers {
			maxSeq = max(maxSeq, a.seq)
		}
		replayed := replayCold(seed, maxSeq)
		for i := range ph.answers {
			if seq := ph.answers[i].seq; seq > 0 {
				ph.answers[i].request = &replayed[seq-1]
			}
		}
	}
	if t != nil {
		t.mu.Lock()
		for i := range t.spans {
			if sp := &t.spans[i]; sp.layer == layerClient && sp.body >= 0 {
				sp.body = remap[sp.body]
			}
		}
		t.mu.Unlock()
	}
	return ph, nil
}

// close releases the phase's spill files.
func (ph *phase) close() {
	for _, wk := range ph.workers {
		if wk != nil {
			wk.file.Close()
		}
	}
}

// latencies returns the sampled latencies of successful attempts, in ms.
func (ph *phase) latencies() []float64 {
	var out []float64
	for _, win := range ph.windows {
		for _, l := range win.lat {
			out = append(out, float64(l))
		}
	}
	return out
}

// verdict is the oracle's judgement of one distinct answer.
type verdict struct {
	failed    bool  // the answer reports a failed solve (batch item, job)
	violation error // the oracle rejected the answer
	ratios    []float64
	tels      []*engine.Telemetry
}

func (v verdict) ok() bool { return !v.failed && v.violation == nil }

// check re-executes every distinct answer against the instance it was asked
// for. It runs after the timed phase, off the clock and outside the CPU
// window.
func (ph *phase) check(o *harness.Oracle) error {
	ph.verdicts = make([]verdict, len(ph.answers))
	for i := range ph.answers {
		body, err := ph.answers[i].body()
		if err != nil {
			return err
		}
		ph.verdicts[i] = checkAnswer(o, ph.answers[i].request, body)
		if ph.verdicts[i].failed {
			ph.failures = append(ph.failures, fmt.Sprintf("answer reports a failed solve: %.300s", body))
		}
	}
	return nil
}

func checkAnswer(o *harness.Oracle, r *request, body []byte) verdict {
	var v verdict
	bound := func(inst *core.Instance, makespan, claimed int) {
		lb := core.LowerBounds(inst).Best()
		if claimed != lb && v.violation == nil {
			v.violation = fmt.Errorf("claimed lower bound %d, instance has %d", claimed, lb)
		}
		if lb > 0 {
			v.ratios = append(v.ratios, float64(makespan)/float64(lb))
		} else {
			v.ratios = append(v.ratios, 1)
		}
	}
	switch r.kind {
	case callSolve:
		var resp service.SolveResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			v.violation = fmt.Errorf("decoding solve answer: %w", err)
			return v
		}
		v.violation = o.CheckSchedule("solve", r.insts[0], resp.Schedule, resp.Makespan, resp.Wasted)
		bound(r.insts[0], resp.Makespan, resp.LowerBound)
		v.tels = append(v.tels, resp.Telemetry)
	case callBatch:
		var resp service.BatchResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			v.violation = fmt.Errorf("decoding batch answer: %w", err)
			return v
		}
		if resp.Solved != len(r.insts) || len(resp.Results) != len(r.insts) {
			v.failed = true
			return v
		}
		for _, res := range resp.Results {
			if res.Index < 0 || res.Index >= len(r.insts) || res.Telemetry == nil {
				v.violation = fmt.Errorf("batch result %d out of range or without telemetry", res.Index)
				return v
			}
			inst := r.insts[res.Index]
			if err := o.CheckMakespan("batch", inst, res.Makespan); err != nil && v.violation == nil {
				v.violation = err
			}
			bound(inst, res.Makespan, res.Telemetry.LowerBound)
			v.tels = append(v.tels, res.Telemetry)
		}
	case callJob:
		var snap jobs.Snapshot
		if err := json.Unmarshal(body, &snap); err != nil {
			v.violation = fmt.Errorf("decoding job record: %w", err)
			return v
		}
		if snap.State != jobs.StateDone || snap.Result == nil {
			v.failed = true
			return v
		}
		res := snap.Result
		v.violation = o.CheckSchedule("job", r.insts[0], res.Schedule, res.Makespan, res.Wasted)
		bound(r.insts[0], res.Makespan, res.LowerBound)
		v.tels = append(v.tels, res.Telemetry)
	}
	return v
}

// endToEnd is what a user of the system sees in one untraced phase.
type endToEnd struct {
	attempted, failed, violations int
	setupS, rawSetupS             float64
	setups                        int
	latencies                     []float64 // sampled successful attempts, sorted
	// Interquartile means over the phase's full windows, at the reference
	// speed and as measured.
	throughput, p50, p90, cpuMS             float64
	rawThroughput, rawP50, rawP90, rawCPUMS float64
	refs                                    []refSpeed // the reference around each window
	windows                                 int
	slo, errRatio                           float64
	ratioMean, rssMB                        float64
	failures                                []string
}

func summarise(w workload, ph *phase, setupS float64) endToEnd {
	e := endToEnd{attempted: ph.attempted, setupS: setupS, rssMB: ph.rssMB, failures: ph.failures,
		latencies: sortedCopy(ph.latencies())}
	var ok, inSLO, ratios int
	var ratioSum float64
	for i, a := range ph.answers {
		v := ph.verdicts[i]
		if v.violation != nil {
			e.violations++
		}
		if !v.ok() {
			continue
		}
		ok += a.n
		inSLO += a.inSLO
		for _, r := range v.ratios {
			ratioSum += r * float64(a.n)
		}
		ratios += len(v.ratios) * a.n
	}
	e.failed = e.attempted - ok
	if e.attempted > 0 {
		e.slo = float64(inSLO) / float64(e.attempted)
		e.errRatio = float64(e.failed) / float64(e.attempted)
	}
	if ratios > 0 {
		e.ratioMean = ratioSum / float64(ratios)
	}

	// Full windows only: the open loop's drain is not a window.
	e.windows = min(len(ph.slots), len(ph.windows))
	var rates, p50s, p90s, cpus, rawRates, rawP50s, rawP90s, rawCPUs []float64
	for k := 0; k < e.windows; k++ {
		win, s := ph.windows[k], ph.slots[k]
		lat := make([]float64, len(win.lat))
		for i, l := range win.lat {
			lat[i] = float64(l)
		}
		lat = sortedCopy(lat)
		rate := float64(win.ok) / s.loaded.Seconds()
		rawRates = append(rawRates, rate)
		rates = append(rates, rate*refScale(refNominal, s.ref.rate))
		p50, p90 := percentile(lat, 50), percentile(lat, 90)
		rawP50s, rawP90s = append(rawP50s, p50), append(rawP90s, p90)
		p50s = append(p50s, p50*refScale(refP50Nominal, s.ref.p50MS))
		p90s = append(p90s, p90*refScale(refP90Nominal, s.ref.p90MS))
		cpu := msPerReq(s.cpu0, s.cpu1, win.attempts)
		rawCPUs = append(rawCPUs, cpu)
		cpus = append(cpus, cpu*refScale(refCPUNominal, s.ref.cpuMS))
		if s.ref.rate > 0 {
			e.refs = append(e.refs, s.ref)
		}
	}
	e.throughput = interquartileMean(rates)
	e.rawThroughput = interquartileMean(rawRates)
	e.p50, e.p90 = interquartileMean(p50s), interquartileMean(p90s)
	e.rawP50, e.rawP90 = interquartileMean(rawP50s), interquartileMean(rawP90s)
	e.cpuMS, e.rawCPUMS = interquartileMean(cpus), interquartileMean(rawCPUs)
	return e
}
