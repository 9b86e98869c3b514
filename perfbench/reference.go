package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The machine this benchmark runs on is a few cores of a shared host, and
// its speed drifts by tens of percent over minutes as neighbours come and
// go. A run therefore pauses its workload at every window boundary and
// measures the machine with a fixed reference job that uses only the Go
// standard library: a loopback HTTP server that decodes a JSON body and
// encodes a JSON answer, driven by as many connections as the workload
// uses. It runs in a child process, so the program's heap, garbage
// collector and resident memory do not touch it, and no change to this
// repository's code moves it; only the machine does.
//
// Timed metrics are reported at the reference speed. A window's rate is
// scaled by refNominal over the reference rate, and its latencies by the
// inverse; its CPU time per request is scaled by refCPUNominal over the
// reference's CPU time per answer. Each reference figure is the mean of
// the measurements right before and right after the window. On a machine
// that runs the reference at refNominal answers per second and
// refCPUNominal per answer, reported and raw values agree; the run prints
// both.
const (
	refNominal    = 40000.0 // reference answers per second that define the reported scale
	refCPUNominal = 0.05    // reference CPU milliseconds per answer that define the reported scale
	refP50Nominal = 0.05    // reference median latency, ms, that defines the reported scale
	refP90Nominal = 0.07    // reference 90th percentile latency, ms, that defines the reported scale
	refLen        = 150 * time.Millisecond
	refEnv        = "PERFBENCH_REFERENCE" // set in the child: its value is the connection count
)

// refBody is the reference request: a JSON object of the size and shape of
// a small solve request.
var refBody = []byte(`{"procs":[[0.3121,0.8812],[0.5529,0.1204],[0.7730,0.4418]],"include_schedule":true,"label":"reference"}`)

// refRequest and refAnswer are what the reference handler decodes and
// encodes.
type refRequest struct {
	Procs           [][]float64 `json:"procs"`
	IncludeSchedule bool        `json:"include_schedule"`
	Label           string      `json:"label"`
}

type refAnswer struct {
	Label string      `json:"label"`
	Rows  int         `json:"rows"`
	Sums  []float64   `json:"sums"`
	Echo  [][]float64 `json:"echo"`
}

func refHandler(w http.ResponseWriter, r *http.Request) {
	var req refRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	ans := refAnswer{Label: req.Label, Rows: len(req.Procs), Echo: req.Procs}
	for _, row := range req.Procs {
		s := 0.0
		for _, x := range row {
			s += x
		}
		ans.Sums = append(ans.Sums, s)
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(ans)
}

// reference is the parent's handle on the child process that runs the
// reference job.
type reference struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	out *bufio.Reader
}

// newReference starts the child: this same executable with refEnv set.
func newReference(conns int) (*reference, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locating the benchmark executable: %w", err)
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), refEnv+"="+strconv.Itoa(conns))
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting the reference process: %w", err)
	}
	return &reference{cmd: cmd, in: in, out: bufio.NewReader(out)}, nil
}

// close ends the child (it exits when its input closes) and waits for it.
func (r *reference) close() {
	r.in.Close()
	r.cmd.Wait()
}

// refSpeed is one measurement of the reference job.
type refSpeed struct {
	rate         float64 // answers per second
	cpuMS        float64 // the child's CPU time (user+sys) per answer, in ms
	p50MS, p90MS float64 // answer latency percentiles, in ms
}

func (a refSpeed) mean(b refSpeed) refSpeed {
	return refSpeed{rate: (a.rate + b.rate) / 2, cpuMS: (a.cpuMS + b.cpuMS) / 2,
		p50MS: (a.p50MS + b.p50MS) / 2, p90MS: (a.p90MS + b.p90MS) / 2}
}

// measure has the child run the reference job for d.
func (r *reference) measure(d time.Duration) (refSpeed, error) {
	if _, err := fmt.Fprintln(r.in, int64(d)); err != nil {
		return refSpeed{}, fmt.Errorf("asking the reference process: %w", err)
	}
	line, err := r.out.ReadString('\n')
	if err != nil {
		return refSpeed{}, fmt.Errorf("reading the reference process: %w", err)
	}
	var sp refSpeed
	if n, _ := fmt.Sscan(line, &sp.rate, &sp.cpuMS, &sp.p50MS, &sp.p90MS); n != 4 || sp.rate <= 0 || sp.cpuMS <= 0 || sp.p50MS <= 0 || sp.p90MS <= 0 {
		return refSpeed{}, fmt.Errorf("reference job: %s", strings.TrimSpace(line))
	}
	return sp, nil
}

// serveReference is the child's main: it answers each duration (in
// nanoseconds) read from standard input with the reference job's speed
// measured over that long, or an error line, until its input ends.
func serveReference(conns int) int {
	srv, url, err := serve(http.HandlerFunc(refHandler))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench reference:", err)
		return 1
	}
	defer srv.Close()
	c := newClient(url, conns, nil)
	defer c.close()
	in := bufio.NewScanner(os.Stdin)
	for in.Scan() {
		ns, err := strconv.ParseInt(in.Text(), 10, 64)
		if err != nil {
			fmt.Println("bad request:", in.Text())
			continue
		}
		sp, err := refRun(c, conns, time.Duration(ns))
		if err != nil {
			fmt.Println(err)
			continue
		}
		fmt.Println(sp.rate, sp.cpuMS, sp.p50MS, sp.p90MS)
	}
	return 0
}

// refRun drives the reference server closed-loop from conns connections
// for d and measures it.
func refRun(c *client, conns int, d time.Duration) (refSpeed, error) {
	lats := make([][]float64, conns)
	errs := make([]error, conns)
	var wg sync.WaitGroup
	cpu0 := readCPU()
	start := time.Now()
	deadline := start.Add(d)
	for i := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) && errs[i] == nil {
				sent := time.Now()
				errs[i] = refOnce(c)
				lats[i] = append(lats[i], float64(time.Since(sent))/float64(time.Millisecond))
			}
		}()
	}
	wg.Wait()
	took, cpu1 := time.Since(start), readCPU()
	if err := errors.Join(errs...); err != nil {
		return refSpeed{}, err
	}
	all := sortedCopy(slices.Concat(lats...))
	return refSpeed{rate: float64(len(all)) / took.Seconds(), cpuMS: msPerReq(cpu0, cpu1, len(all)),
		p50MS: percentile(all, 50), p90MS: percentile(all, 90)}, nil
}

func refOnce(c *client) error {
	resp, err := c.http.Post(c.base+"/", "application/json", bytes.NewReader(refBody))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	return nil
}
