// Command benchdiff compares two `go test -json` benchmark runs and exits
// non-zero when the new run regresses: median ns/op worse than the baseline
// by more than -tolerance, or any increase in median allocs/op, on the
// benchmarks matching -filter. It is the CI benchmark-regression gate: the
// workflow restores the previous run's BENCH_core.json as the baseline and
// feeds it the fresh one.
//
// A missing baseline is not an error (the first run of a branch has nothing
// to compare against): benchdiff prints a notice and exits 0, and the
// workflow saves the fresh run as the next baseline.
//
//	benchdiff -old BENCH_baseline.json -new BENCH_core.json \
//	    -filter 'BranchBound|WideManyProc|HardExact' -tolerance 0.10
//
// With -perf it additionally renders the perf trajectory as a committed
// markdown report: the fresh benchmark medians with per-sample sparklines and
// signed delta bars against the baseline, plus the crload report given with
// -load (per-class latency quantiles, shed counts, cache accounting):
//
//	benchdiff -new BENCH_core.json -old BENCH_baseline.json \
//	    -load BENCH_load.json -perf PERF.md
package main

import (
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strings"

	"crsharing/internal/benchcmp"
	"crsharing/internal/harness"
)

func main() {
	oldPath := flag.String("old", "", "baseline go test -json benchmark output")
	newPath := flag.String("new", "", "fresh go test -json benchmark output")
	filterExpr := flag.String("filter", "", "regexp selecting the gated benchmarks (matched against package.Benchmark; empty = all)")
	skipNsExpr := flag.String("skip-ns", "", "regexp of benchmarks exempt from the ns/op gate (allocs/op still gated); for parallel kernels whose wall-clock is not comparable across shared runners")
	tolerance := flag.Float64("tolerance", 0.10, "allowed fractional ns/op growth before failing")
	perfPath := flag.String("perf", "", "render the perf trajectory (benchmarks + load report) as markdown to this file")
	loadPath := flag.String("load", "", "crload report JSON to include in the -perf trajectory")
	flag.Parse()
	if *newPath == "" {
		fmt.Fprintln(os.Stderr, "benchdiff: -new is required")
		os.Exit(2)
	}

	compileFlag := func(name, expr string) *regexp.Regexp {
		if expr == "" {
			return nil
		}
		re, err := regexp.Compile(expr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchdiff: bad -%s: %v\n", name, err)
			os.Exit(2)
		}
		return re
	}
	filter := compileFlag("filter", *filterExpr)
	skipNs := compileFlag("skip-ns", *skipNsExpr)

	newRun, ok := load(*newPath)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchdiff: cannot read %q\n", *newPath)
		os.Exit(2)
	}
	oldRun, hasBaseline := load(*oldPath)

	if *perfPath != "" {
		if err := writePerf(*perfPath, oldRun, newRun, *loadPath, filter); err != nil {
			fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
			os.Exit(2)
		}
		fmt.Printf("benchdiff: wrote perf trajectory to %s\n", *perfPath)
	}

	if !hasBaseline {
		fmt.Printf("benchdiff: no baseline at %q; nothing to compare against\n", *oldPath)
		return
	}

	regs := benchcmp.Compare(oldRun, newRun, benchcmp.Options{Filter: filter, Tolerance: *tolerance, SkipNs: skipNs})
	missing := benchcmp.Missing(oldRun, newRun, filter)
	compared := 0
	for key := range newRun {
		if _, ok := oldRun[key]; ok && (filter == nil || filter.MatchString(key.String())) {
			compared++
		}
	}
	fmt.Printf("benchdiff: %d benchmarks compared (tolerance %.0f%% ns/op, zero allocs/op growth)\n",
		compared, 100**tolerance)
	for _, key := range missing {
		fmt.Printf("  missing from new run: %s\n", key)
	}
	for _, r := range regs {
		fmt.Printf("  REGRESSION %s\n", r)
	}
	if len(regs) > 0 || len(missing) > 0 {
		os.Exit(1)
	}
	fmt.Println("benchdiff: no regressions")
}

// writePerf renders the committed perf trajectory: the benchmark table (with
// sparklines and baseline deltas) and, when a crload report is given, the
// end-to-end load section.
func writePerf(path string, old, new map[benchcmp.Key]*benchcmp.Samples, loadPath string, filter *regexp.Regexp) error {
	var b strings.Builder
	b.WriteString("# Performance trajectory\n\n")
	b.WriteString("Rendered by `benchdiff -perf` from the committed benchmark and load-report\n")
	b.WriteString("artifacts. Regenerate after a benchmark-affecting change with:\n\n")
	b.WriteString("```sh\n")
	b.WriteString("go test -run '^$' -bench . -benchmem -count 3 -json \\\n")
	b.WriteString("  ./internal/core ./internal/solver ./internal/engine ./internal/algo/branchbound > BENCH_core.json\n")
	b.WriteString("go run ./cmd/crload -seed 1 -duration 4s -rate 150 -shards 2 -json BENCH_load.json\n")
	b.WriteString("go run ./cmd/benchdiff -new BENCH_core.json -load BENCH_load.json -perf PERF.md\n")
	b.WriteString("```\n\n")
	b.WriteString("`samples` is a sparkline of the `-count` repetitions (run-to-run spread);\n")
	b.WriteString("the delta column compares medians against the `-old` baseline stream.\n\n")

	b.WriteString("## Core benchmarks\n\n")
	b.WriteString(benchcmp.RenderMarkdown(old, new, filter))

	if loadPath != "" {
		data, err := os.ReadFile(loadPath)
		if err != nil {
			return err
		}
		rep, err := harness.ParseReport(data)
		if err != nil {
			return fmt.Errorf("%s: %w", loadPath, err)
		}
		b.WriteString("\n## End-to-end load (crload)\n\n")
		b.WriteString(renderLoadSection(rep))
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// renderLoadSection renders the crload report's headline numbers as markdown.
func renderLoadSection(rep *harness.Report) string {
	var b strings.Builder
	shards := rep.Shards
	if shards == 0 {
		shards = 1
	}
	fmt.Fprintf(&b, "Seed %d, %.1f req/s offered over %.1fs across %d shard(s): %d requests, %.1f req/s served, %d driver sheds, %d server sheds.\n\n",
		rep.Seed, rep.RatePerSec, rep.DurationSec, shards, rep.Requests, rep.Throughput, rep.Shed, rep.ServerShed)
	b.WriteString("| Class | requests | errors | shed | p50 | p99 | max |\n")
	b.WriteString("|---|---:|---:|---:|---:|---:|---:|\n")
	classes := make([]string, 0, len(rep.Classes))
	for class := range rep.Classes {
		classes = append(classes, class)
	}
	sort.Strings(classes)
	for _, class := range classes {
		cs := rep.Classes[class]
		if cs.Requests == 0 {
			continue
		}
		fmt.Fprintf(&b, "| %s | %d | %d | %d | %.1fms | %.1fms | %.1fms |\n",
			class, cs.Requests, cs.Errors, cs.Shed, cs.Latency.P50MS, cs.Latency.P99MS, cs.Latency.MaxMS)
	}
	fmt.Fprintf(&b, "\nOracle: %d schedules validated, %d violations. Cache: %.0f fresh solves, %.0f served, hit ratio %.3f.\n",
		rep.Validated, rep.ViolationCount, rep.Cache.FreshSolves, rep.Cache.CacheServed, rep.Cache.HitRatio)
	return b.String()
}

// load parses one benchmark stream; ok is false when the file is absent or
// unreadable.
func load(path string) (map[benchcmp.Key]*benchcmp.Samples, bool) {
	if path == "" {
		return nil, false
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, false
	}
	defer f.Close()
	run, err := benchcmp.ParseStream(f)
	if err != nil {
		return nil, false
	}
	return run, true
}
