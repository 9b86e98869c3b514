package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// client is the load generator's HTTP side: at most limit connections to
// one base URL, counted as they open and close.
type client struct {
	http  *http.Client
	base  string
	t     *tracer // nil in the untraced run
	ids   atomic.Uint64
	open  atomic.Int64
	peak  atomic.Int64
	limit int
}

func newClient(base string, conns int, t *tracer) *client {
	c := &client{base: base, t: t, limit: conns}
	dialer := &net.Dialer{Timeout: 5 * time.Second}
	c.http = &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
				conn, err := dialer.DialContext(ctx, network, addr)
				if err != nil {
					return nil, err
				}
				n := c.open.Add(1)
				for p := c.peak.Load(); n > p && !c.peak.CompareAndSwap(p, n); p = c.peak.Load() {
				}
				return &countedConn{Conn: conn, c: c}, nil
			},
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
	return c
}

func (c *client) close() { c.http.CloseIdleConnections() }

// countedConn decrements the client's open-connection count once on Close.
type countedConn struct {
	net.Conn
	c    *client
	once sync.Once
}

func (cc *countedConn) Close() error {
	cc.once.Do(func() { cc.c.open.Add(-1) })
	return cc.Conn.Close()
}

// connections is how many connections the client may hold: one per CPU
// (nproc).
func connections() int { return runtime.NumCPU() }

// answer is one distinct 2xx body kept for the oracle, with the request
// that produced it. The body itself waits in the worker's spill file, so
// the process's resident memory reflects the server, not the bodies.
type answer struct {
	*request
	spill *os.File
	off   int64
	size  int
	// Attempts answered with this body, and how many of them within the
	// workload's latency limit.
	n, inSLO int
	hash     uint64 // of the body, under the phase's seed
}

func (a *answer) body() ([]byte, error) {
	b := make([]byte, a.size)
	if _, err := a.spill.ReadAt(b, a.off); err != nil {
		return nil, fmt.Errorf("reading a kept answer back: %w", err)
	}
	return b, nil
}

// window tallies the attempts that ended in one window of the timed phase.
type window struct {
	attempts, ok int
	// lat holds the latencies (ms) of up to latencySample successful
	// attempts, a uniform sample when there were more.
	lat []float32
}

// latencySample bounds the latencies a worker keeps per window, so the
// client's memory does not grow with throughput; p50 and p90 of the sample
// stand for those of every attempt in the window.
const latencySample = 4096

// worker is one connection's worth of load. It keeps its own tallies and
// distinct answers, so the timed path takes no shared lock.
type worker struct {
	id  int
	c   *client
	slo time.Duration

	buf     bytes.Buffer
	seed    maphash.Seed
	seen    map[uint64]int32 // body hash -> index into answers
	answers []answer
	spill   *bufio.Writer
	file    *os.File
	off     int64
	// Cold-stream answers are all distinct. Rather than an entry each in
	// answers and seen, which would make the client's memory grow with
	// throughput during the phase, each goes to the spill file with its
	// stream position and SLO verdict in front (coldEntry), and finish
	// reads them back. A worker's requests are either all cold or none are.
	coldSeq   int   // stream position of the cold answer in buf, until recorded
	colds     int32 // cold answers kept
	recordErr error

	windows  []window   // by the window an attempt ended in
	rng      *rand.Rand // latency sampling
	shed     int        // attempts refused with 429
	lateness []float32  // ms, open loop
	// Job attempts: the submit round trip, and submit to terminal event.
	submits, turnarounds []time.Duration
	failures             []string
}

// bodyRefBits packs (worker, local answer index) into the int32 a client
// span carries.
const bodyRefBits = 24

// newWorker returns a worker whose answers spill into a new file in dir and
// are deduplicated by their hash under seed.
func newWorker(id int, c *client, dir string, seed maphash.Seed, slo time.Duration) (*worker, error) {
	f, err := os.CreateTemp(dir, "answers-*")
	if err != nil {
		return nil, fmt.Errorf("creating the answer spill file: %w", err)
	}
	return &worker{id: id, c: c, slo: slo, seed: seed, seen: make(map[uint64]int32),
		file: f, spill: bufio.NewWriter(f), rng: rand.New(rand.NewSource(int64(id)))}, nil
}

// keep files the body in buf as an answer to check, once per distinct
// body, and returns its local index. A cold-stream answer is written by
// record, which knows its latency.
func (w *worker) keep(r *request) (int32, error) {
	if r.seq > 0 {
		w.coldSeq = r.seq
		w.colds++
		return w.colds - 1, nil
	}
	h := maphash.Bytes(w.seed, w.buf.Bytes())
	if i, ok := w.seen[h]; ok {
		return i, nil
	}
	n, err := w.spill.Write(w.buf.Bytes())
	if err != nil {
		return -1, fmt.Errorf("spilling an answer: %w", err)
	}
	i := int32(len(w.answers))
	w.answers = append(w.answers, answer{request: r, spill: w.file, off: w.off, size: n, hash: h})
	w.off += int64(n)
	w.seen[h] = i
	return i, nil
}

// coldEntry is the header in front of a cold-stream answer in the spill
// file: stream position, body size and whether it met the latency limit.
type coldEntry struct {
	Seq   uint64
	Size  uint32
	InSLO uint8
}

var coldEntrySize = int64(binary.Size(coldEntry{}))

// finish flushes the spill file so kept answers can be read back, and reads
// the cold-stream answers back into answers, in the order keep indexed
// them.
func (w *worker) finish() error {
	if w.recordErr != nil {
		return fmt.Errorf("spilling an answer: %w", w.recordErr)
	}
	if err := w.spill.Flush(); err != nil {
		return fmt.Errorf("flushing the answer spill file: %w", err)
	}
	if w.colds == 0 {
		return nil
	}
	rd := bufio.NewReader(io.NewSectionReader(w.file, 0, w.off))
	var off int64
	for range w.colds {
		var e coldEntry
		if err := binary.Read(rd, binary.LittleEndian, &e); err != nil {
			return fmt.Errorf("reading a kept answer back: %w", err)
		}
		w.buf.Reset()
		if _, err := io.CopyN(&w.buf, rd, int64(e.Size)); err != nil {
			return fmt.Errorf("reading a kept answer back: %w", err)
		}
		off += coldEntrySize
		w.answers = append(w.answers, answer{request: &request{kind: callSolve, seq: int(e.Seq)},
			spill: w.file, off: off, size: int(e.Size), n: 1, inSLO: int(e.InSLO), hash: maphash.Bytes(w.seed, w.buf.Bytes())})
		off += int64(e.Size)
	}
	return nil
}

// record tallies one attempt that finished in window k: lat is its latency,
// answer the local index of its answer (-1 when it failed).
func (w *worker) record(k int, lat time.Duration, answer int32) {
	for len(w.windows) <= k {
		w.windows = append(w.windows, window{})
	}
	win := &w.windows[k]
	win.attempts++
	if answer < 0 {
		return
	}
	win.ok++
	ms := float32(float64(lat) / float64(time.Millisecond))
	if len(win.lat) < latencySample {
		win.lat = append(win.lat, ms)
	} else if j := w.rng.Intn(win.ok); j < latencySample {
		win.lat[j] = ms // reservoir sampling
	}
	if w.coldSeq > 0 {
		e := coldEntry{Seq: uint64(w.coldSeq), Size: uint32(w.buf.Len())}
		if lat <= w.slo {
			e.InSLO = 1
		}
		w.coldSeq = 0
		err := binary.Write(w.spill, binary.LittleEndian, e)
		if err == nil {
			_, err = w.spill.Write(w.buf.Bytes())
		}
		w.recordErr = errors.Join(w.recordErr, err)
		w.off += coldEntrySize + int64(e.Size)
		return
	}
	a := &w.answers[answer]
	a.n++
	if lat <= w.slo {
		a.inSLO++
	}
}

// call sends one HTTP request and reads the whole response into w.buf. When
// the answer is 2xx and keepAs is a solve or batch, the body is kept for the
// oracle; a job's answer is its final record, kept by attempt.
func (w *worker) call(method, path string, body []byte, keepAs *request) (status int, answer int32, err error) {
	answer = -1
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, w.c.base+path, rd)
	if err != nil {
		return 0, answer, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	var id uint64
	var start time.Duration
	if t := w.c.t; t != nil {
		id = w.c.ids.Add(1)
		req.Header.Set(reqHeader, strconv.FormatUint(id, 10))
		if keepAs != nil && keepAs.kind == callJob && method == http.MethodPost {
			t.bindFingerprint(keepAs.insts[0].Fingerprint(), id)
		}
		start = t.now()
	}
	resp, err := w.c.http.Do(req)
	if err == nil {
		w.buf.Reset()
		_, err = w.buf.ReadFrom(resp.Body)
		resp.Body.Close()
		status = resp.StatusCode
		if err == nil && status/100 == 2 && keepAs != nil && keepAs.kind != callJob {
			answer, err = w.keep(keepAs)
		}
	}
	if t := w.c.t; t != nil {
		sp := span{req: id, layer: layerClient, start: start, end: t.now(), kind: callSolve, body: -1}
		if keepAs != nil {
			sp.kind = keepAs.kind
		}
		if answer >= 0 {
			sp.body = int32(w.id<<bodyRefBits) | answer
		}
		t.record(sp)
	}
	return status, answer, err
}

// attempt runs one workload request to its answer: a single call for solve
// and batch, submit + event stream + final record for a job. It returns the
// local index of the kept answer, or -1 when the attempt failed.
func (w *worker) attempt(r *request) int32 {
	if r.kind != callJob {
		status, answer, err := w.call(http.MethodPost, pathOf(r.kind), r.body, r)
		if err != nil || status/100 != 2 {
			return w.fail(pathOf(r.kind), status, err)
		}
		return answer
	}
	start := time.Now()
	status, _, err := w.call(http.MethodPost, "/v1/jobs", r.body, r)
	w.submits = append(w.submits, time.Since(start))
	if err != nil || status != http.StatusAccepted {
		return w.fail("/v1/jobs", status, err)
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(w.buf.Bytes(), &sub); err != nil || sub.ID == "" {
		return w.fail("/v1/jobs", status, fmt.Errorf("no job id in %q", w.buf.Bytes()))
	}
	// The event stream ends when the job reaches a terminal state.
	if status, _, err = w.call(http.MethodGet, "/v1/jobs/"+sub.ID+"/events", nil, nil); err != nil || status != http.StatusOK {
		return w.fail("/v1/jobs/{id}/events", status, err)
	}
	w.turnarounds = append(w.turnarounds, time.Since(start))
	status, _, err = w.call(http.MethodGet, "/v1/jobs/"+sub.ID, nil, nil)
	if err != nil || status != http.StatusOK {
		return w.fail("/v1/jobs/{id}", status, err)
	}
	answer, err := w.keep(r)
	if err != nil {
		return w.fail("/v1/jobs/{id}", status, err)
	}
	return answer
}

// maxFailureNotes bounds the failure descriptions a worker keeps.
const maxFailureNotes = 4

// fail notes why an attempt failed and returns the failed-attempt index.
func (w *worker) fail(path string, status int, err error) int32 {
	if status == http.StatusTooManyRequests {
		w.shed++
	}
	if len(w.failures) < maxFailureNotes {
		note := fmt.Sprintf("%s: status %d", path, status)
		if err != nil {
			note += ": " + err.Error()
		} else if status != 0 {
			note += ": " + strings.TrimSpace(w.buf.String())
		}
		w.failures = append(w.failures, note)
	}
	return -1
}

func pathOf(k callKind) string {
	if k == callBatch {
		return "/v1/batch-solve"
	}
	return "/v1/solve"
}

// closedLoop drives the workers for windows windows. In each, every worker
// sends its next request as soon as the previous one is answered until load
// has passed since the window began; then the workload stops, and pause(k,
// loaded) runs before the next window, with loaded the time from the
// window's start until its last attempt ended. next picks a worker's next
// request.
func closedLoop(workers []*worker, windows int, load time.Duration, next func(w *worker) *request,
	pause func(k int, loaded time.Duration) error) error {
	for k := 0; k < windows; k++ {
		start := time.Now()
		deadline := start.Add(load)
		var wg sync.WaitGroup
		for _, w := range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Now().Before(deadline) {
					r := next(w)
					sent := time.Now()
					answer := w.attempt(r)
					w.record(k, time.Since(sent), answer)
				}
			}()
		}
		wg.Wait()
		if err := pause(k, time.Since(start)); err != nil {
			return err
		}
	}
	return nil
}

// openLoop sends every arrival at its due time through the workers, one
// connection each. No arrival is dropped: when every worker is busy, due
// arrivals wait in order and their wait counts in their latency, which runs
// from the due time. Each worker records how late it sent (lateness).
func openLoop(workers []*worker, start time.Time, arrivals []arrival) {
	queue := make(chan int, len(arrivals)) // holds every arrival: never blocks the schedule
	go func() {
		for i, a := range arrivals {
			time.Sleep(time.Until(start.Add(a.due)))
			queue <- i
		}
		close(queue)
	}()
	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range queue {
				a := &arrivals[idx]
				due := start.Add(a.due)
				w.lateness = append(w.lateness, float32(float64(time.Since(due))/float64(time.Millisecond)))
				answer := w.attempt(&a.request)
				w.record(int(time.Since(start)/windowLen), time.Since(due), answer)
			}
		}()
	}
	wg.Wait()
}
