// Command perfbench is the repository benchmark. It runs the shipped server
// (wired as cmd/crserved and cmd/crrouter wire it, with their defaults)
// in-process on loopback, drives one workload against it from the same
// process, checks every distinct answer with the schedule oracle, and prints
// each metric by name with its unit. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Usage, from the repository root:
//
//	python3 perfbench/run.py --workload hot-repeat --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics of an untraced run. --trace 1
// runs the workload untraced and then traced with the same seed, and
// reports the per-layer metrics. See README.md in this directory.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"crsharing/internal/harness"
)

// A plain run builds and warms the stack at least setupMin times and until
// setupBudget has gone by; setup_s is the median set-up time, at the
// reference speed measured before and after the set-ups. Only the last
// stack is driven.
const (
	setupMin    = 9
	setupBudget = 2 * time.Second
)

func main() {
	if conns := os.Getenv(refEnv); conns != "" {
		n, _ := strconv.Atoi(conns)
		os.Exit(serveReference(max(n, 1)))
	}
	os.Exit(run())
}

// run is main with an exit code, so deferred clean-up runs before exit.

func run() int {
	name := flag.String("workload", "", "workload to drive: hot-repeat, cold-portfolio, online-mixed or fleet-drain")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 10, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 for the traced run that reports per-layer metrics")
	flag.Parse()
	w, err := lookupWorkload(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload <name> --seed <n> --seconds <n≥1> --trace <0|1>")
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
		}
		return 2
	}
	printHeader(w, *seed, *seconds, *trace)

	// Scratch space for answer spill files and cache snapshots, inside the
	// working directory.
	dir, err := os.MkdirTemp(".", ".perfbench-run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	var res result
	if *trace == 0 {
		res, err = plainRun(w, *seed, *seconds, dir)
	} else {
		res, err = tracedRun(w, *seed, *seconds, dir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

// result is the JSON line the benchmark ends with.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newResult(ms []metric) result {
	r := result{Metrics: make(map[string]metricValue, len(ms))}
	for _, m := range ms {
		r.Metrics[m.name] = metricValue{Value: m.value, Unit: m.unit}
	}
	return r
}

// plainRun sets the stack up repeatedly (see setupMin), drives the last
// one untraced and reports the end-to-end metrics.
func plainRun(w workload, seed int64, seconds int, dir string) (result, error) {
	ref, err := newReference(connections())
	if err != nil {
		return result{}, err
	}
	defer ref.close()
	before, err := ref.measure(refLen)
	if err != nil {
		return result{}, err
	}
	var setups []float64
	var st *stack
	var in *inputs
	for began := time.Now(); len(setups) < setupMin || time.Since(began) < setupBudget; {
		if st != nil {
			st.close()
		}
		runtime.GC() // each set-up starts from a collected heap
		start := time.Now()
		if st, in, err = setUp(w, seed, seconds, nil); err != nil {
			return result{}, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	after, err := ref.measure(refLen)
	if err != nil {
		st.close()
		return result{}, err
	}
	ph, err := runPhase(w, st, in, ref, seed, seconds, nil, dir)
	st.close()
	if err != nil {
		return result{}, err
	}
	defer ph.close()
	o := harness.NewOracle()
	if err := ph.check(o); err != nil {
		return result{}, err
	}
	e := summarise(w, ph, median(setups)*refScale(refP50Nominal, before.mean(after).p50MS))
	e.rawSetupS, e.setups = median(setups), len(setups)
	printEndToEnd(w, e, o)

	res := newResult([]metric{
		{"setup_s", "s", e.setupS},
		{"throughput_rps", "1/s", e.throughput},
		{"latency_p50_ms", "ms", e.p50},
		{"latency_p90_ms", "ms", e.p90},
		{"slo_ratio", "ratio", e.slo},
		{"cpu_ms_per_req", "ms", e.cpuMS},
		{"ratio_mean", "ratio", e.ratioMean},
		{"rss_peak_mb", "MB", e.rssMB},
	})
	res.Attempted, res.Failed = e.attempted, e.failed
	res.Correct = e.violations == 0 && e.failed == 0
	return res, nil
}

// tracedRun drives the workload untraced and then traced with the same
// seed, and reports the per-layer metrics; comparing the two phases gives
// the tracing overhead.
func tracedRun(w workload, seed int64, seconds int, dir string) (result, error) {
	o := harness.NewOracle()
	ref, err := newReference(connections())
	if err != nil {
		return result{}, err
	}
	defer ref.close()
	st, in, err := setUp(w, seed, seconds, nil)
	if err != nil {
		return result{}, err
	}
	plain, err := runPhase(w, st, in, ref, seed, seconds, nil, dir)
	st.close()
	if err != nil {
		return result{}, err
	}
	defer plain.close()
	if err := plain.check(o); err != nil {
		return result{}, err
	}

	t := newTracer()
	if st, in, err = setUp(w, seed, seconds, t); err != nil {
		return result{}, err
	}
	defer st.close()
	t.reset() // drop the warm-up's kernel spans
	traced, err := runPhase(w, st, in, ref, seed, seconds, t, dir)
	if err != nil {
		return result{}, err
	}
	defer traced.close()
	if err := traced.check(o); err != nil {
		return result{}, err
	}
	layers, err := perLayer(w, plain, traced, t, st, dir)
	if err != nil {
		return result{}, err
	}
	pe, e := summarise(w, plain, 0), summarise(w, traced, 0)
	printEndToEnd(w, e, o)
	for _, m := range layers {
		fmt.Printf("layer %-32s %14.4f %s\n", m.name, m.value, m.unit)
	}
	res := newResult(layers)
	res.Attempted = pe.attempted + e.attempted
	res.Failed = pe.failed + e.failed
	res.Correct = o.ViolationCount() == 0 && res.Failed == 0
	return res, nil
}

// printEndToEnd prints the ten end-to-end metrics of a phase, with the
// sample count behind the latency percentiles, and the oracle's findings.
func printEndToEnd(w workload, e endToEnd, o *harness.Oracle) {
	lat := e.latencies
	n := len(lat)
	line := func(name, unit string, v float64, note string) {
		fmt.Printf("e2e   %-32s %14.4f %-6s %s\n", name, v, unit, note)
	}
	windows := fmt.Sprintf("interquartile mean of %d %s windows", e.windows, windowLen)
	if len(e.refs) > 0 {
		windows += " at reference speed"
		var rate, cpu, p50, p90 []float64
		for _, r := range e.refs {
			rate, cpu, p50, p90 = append(rate, r.rate), append(cpu, r.cpuMS), append(p50, r.p50MS), append(p90, r.p90MS)
		}
		fmt.Printf("reference measured %.0f answers/s, %.4f CPU ms/answer, p50 %.4fms, p90 %.4fms (medians of %d); "+
			"the reported scale is %.0f/s, %gms, %gms, %gms\n", median(rate), median(cpu), median(p50), median(p90),
			len(e.refs), refNominal, refCPUNominal, refP50Nominal, refP90Nominal)
	}
	if e.setups > 0 {
		line("setup_s", "s", e.setupS, fmt.Sprintf("median of %d set-ups at reference speed; %.6fs measured", e.setups, e.rawSetupS))
	}
	line("throughput_rps", "1/s", e.throughput, fmt.Sprintf("successful answers per second, %s; %.0f/s measured", windows, e.rawThroughput))
	sampled := fmt.Sprintf(", n=%d sampled of %d", n, e.attempted-e.failed)
	line("latency_p50_ms", "ms", e.p50, fmt.Sprintf("%s%s; %.4fms measured", windows, sampled, e.rawP50))
	line("latency_p90_ms", "ms", e.p90, fmt.Sprintf("%s%s; %.4fms measured", windows, sampled, e.rawP90))
	if supported(n, 99) {
		line("latency_p99_ms", "ms", percentile(lat, 99), "whole phase, as measured"+sampled)
	} else {
		fmt.Printf("e2e   %-32s %14s %-6s n=%d < 1000, p99 not supported\n", "latency_p99_ms", "omitted", "ms", n)
	}
	line("slo_ratio", "ratio", e.slo, fmt.Sprintf("limit %gms", w.sloMS))
	line("error_ratio", "ratio", e.errRatio, fmt.Sprintf("%d of %d attempts failed", e.failed, e.attempted))
	line("cpu_ms_per_req", "ms", e.cpuMS, fmt.Sprintf("getrusage user+sys per attempt, %s; %.4fms measured", windows, e.rawCPUMS))
	line("ratio_mean", "ratio", e.ratioMean, "makespan / lower bound")
	line("rss_peak_mb", "MB", e.rssMB, "")
	for _, f := range e.failures {
		fmt.Println("failure:", f)
	}
	fmt.Printf("oracle checked %d distinct answers, %d violations\n", o.Validated(), o.ViolationCount())
	for _, v := range o.Violations() {
		fmt.Println("oracle violation:", v)
	}
}

// printHeader identifies the run: machine, toolchain, source and the server
// configuration. Runs with different headers are not comparable.
func printHeader(w workload, seed int64, seconds, trace int) {
	fmt.Printf("perfbench workload=%s seed=%d seconds=%d trace=%d\n", w.name, seed, seconds, trace)
	fmt.Printf("workload %s: %s (latency limit %gms)\n", w.name, w.why, w.sloMS)
	fmt.Printf("machine nproc=%d gomaxprocs=%d cpu=%q\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel())
	fmt.Printf("toolchain go=%s source=%s\n", runtime.Version(), sourceID())
	fmt.Printf("server %s connections=%d\n", configLine(), connections())
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceID names the code under test: the VCS revision the binary was built
// from when the build saw one, else a digest of the Go sources in the
// working directory (a checkout without git metadata).
func sourceID() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", ""
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+modified"
				}
			}
		}
		if rev != "" {
			return "commit " + rev + dirty
		}
	}
	h := sha256.New()
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || path == "go.mod") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return nil
		}
		defer f.Close()
		io.WriteString(h, path+"\x00")
		io.Copy(h, f)
		return nil
	})
	return "tree-sha256 " + hex.EncodeToString(h.Sum(nil))[:16]
}
