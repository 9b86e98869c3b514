// Package stats provides the small set of descriptive statistics used by the
// experiment harness and the simulator reports: means, standard deviations,
// quantiles, min/max, and the one mergeable log-bucket Histogram that the
// engine's /metrics and crload's latency reports share. It exists so that
// the experiments can summarise ratio distributions without pulling in
// external dependencies.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary holds the descriptive statistics of a sample.
type Summary struct {
	Count  int
	Mean   float64
	StdDev float64
	Min    float64
	Max    float64
	P50    float64
	P90    float64
	P99    float64
}

// Summarize computes the summary of the sample. An empty sample yields a zero
// summary with Count 0. The sample is copied and sorted exactly once; the
// quantiles (and min/max) are read off the shared sorted copy.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s := Summary{
		Count: len(sorted),
		Min:   sorted[0],
		Max:   sorted[len(sorted)-1],
		P50:   quantileSorted(sorted, 0.50),
		P90:   quantileSorted(sorted, 0.90),
		P99:   quantileSorted(sorted, 0.99),
	}
	var sum float64
	for _, x := range sorted {
		sum += x
	}
	s.Mean = sum / float64(len(sorted))
	var sq float64
	for _, x := range sorted {
		d := x - s.Mean
		sq += d * d
	}
	if len(sorted) > 1 {
		s.StdDev = math.Sqrt(sq / float64(len(sorted)-1))
	}
	return s
}

// String renders the summary on one line.
func (s Summary) String() string {
	if s.Count == 0 {
		return "n=0"
	}
	return fmt.Sprintf("n=%d mean=%.4f sd=%.4f min=%.4f p50=%.4f p90=%.4f p99=%.4f max=%.4f",
		s.Count, s.Mean, s.StdDev, s.Min, s.P50, s.P90, s.P99, s.Max)
}

// Mean returns the arithmetic mean (0 for an empty sample).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Max returns the maximum (0 for an empty sample).
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	max := xs[0]
	for _, x := range xs[1:] {
		if x > max {
			max = x
		}
	}
	return max
}

// Min returns the minimum (0 for an empty sample).
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	min := xs[0]
	for _, x := range xs[1:] {
		if x < min {
			min = x
		}
	}
	return min
}

// Quantile returns the q-quantile (q in [0,1]) using linear interpolation
// between closest ranks. The input need not be sorted. To compute several
// quantiles of the same sample use Summarize, which sorts only once.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q)
}

// quantileSorted is Quantile over an already-sorted non-empty sample.
func quantileSorted(sorted []float64, q float64) float64 {
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// MergeSummaries pools two summaries exactly for Count, Mean, StdDev, Min and
// Max (the pooled standard deviation is reconstructed from the per-summary
// moments). Quantiles are NOT mergeable from summaries alone — P50/P90/P99 of
// the result are zero and must be re-estimated by the caller, typically from a
// merged Histogram (see Histogram.Merge and Histogram.Quantile).
func MergeSummaries(a, b Summary) Summary {
	if a.Count == 0 {
		return Summary{Count: b.Count, Mean: b.Mean, StdDev: b.StdDev, Min: b.Min, Max: b.Max}
	}
	if b.Count == 0 {
		return Summary{Count: a.Count, Mean: a.Mean, StdDev: a.StdDev, Min: a.Min, Max: a.Max}
	}
	na, nb := float64(a.Count), float64(b.Count)
	out := Summary{
		Count: a.Count + b.Count,
		Mean:  (na*a.Mean + nb*b.Mean) / (na + nb),
		Min:   math.Min(a.Min, b.Min),
		Max:   math.Max(a.Max, b.Max),
	}
	// Pooled variance via the combined sum of squared deviations: each side
	// contributes its own M2 = (n-1)·sd² plus the shift of its mean to the
	// pooled mean.
	m2 := (na-1)*a.StdDev*a.StdDev + na*(a.Mean-out.Mean)*(a.Mean-out.Mean) +
		(nb-1)*b.StdDev*b.StdDev + nb*(b.Mean-out.Mean)*(b.Mean-out.Mean)
	if out.Count > 1 {
		out.StdDev = math.Sqrt(m2 / float64(out.Count-1))
	}
	return out
}
