package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// minTail is how many samples must lie beyond a percentile before it is
// reported: a p99 needs 1000 samples, a p90 100, a p50 20.
const minTail = 10

// supported reports whether n samples support the q-th percentile, i.e.
// whether at least minTail of them lie beyond it.
func supported(n int, q float64) bool {
	return float64(n)*(100-q)/100 >= minTail-1e-9
}

// tailPercentile returns the highest of the standard percentiles that n
// samples support, or 0 when they support none.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, q := range []float64{50, 90, 99, 99.9} {
		if supported(n, q) {
			best = q
		}
	}
	return best
}

// percentile returns the nearest-rank q-th percentile of xs, which must be
// sorted ascending; 0 for no samples.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q / 100 * float64(len(sorted))))
	rank = max(1, min(rank, len(sorted)))
	return sorted[rank-1]
}

// sortedCopy returns xs sorted ascending without touching the input.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median returns the 50th percentile of xs (unsorted).
func median(xs []float64) float64 { return percentile(sortedCopy(xs), 50) }

// interquartileMean returns the mean of the middle half of xs (unsorted):
// like the median it ignores the outer quarters, but it averages what is
// left instead of picking one sample.
func interquartileMean(xs []float64) float64 {
	s := sortedCopy(xs)
	q := len(s) / 4
	return mean(s[q : len(s)-q])
}

// mean returns the arithmetic mean of xs; 0 for no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// cpuTimes is the process's accumulated user and system CPU time.
type cpuTimes struct{ user, sys time.Duration }

// readCPU samples the process's CPU time with getrusage(RUSAGE_SELF). It
// covers every goroutine of the process: server, router and load generator.
func readCPU() cpuTimes {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return cpuTimes{}
	}
	return cpuTimes{user: time.Duration(ru.Utime.Nano()), sys: time.Duration(ru.Stime.Nano())}
}

// msPerReq divides the CPU time spent between two samples by the requests
// completed in between, in milliseconds; 0 when none completed.
func msPerReq(before, after cpuTimes, reqs int) float64 {
	if reqs <= 0 {
		return 0
	}
	spent := (after.user - before.user) + (after.sys - before.sys)
	return float64(spent) / float64(time.Millisecond) / float64(reqs)
}

// peakRSSMB returns the process's peak resident set size in MiB (Linux
// reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// inUnits converts durations to floats counting unit.
func inUnits(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}
