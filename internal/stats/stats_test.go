package stats

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummarizeKnownSample(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	s := Summarize(xs)
	if s.Count != 8 {
		t.Fatalf("count = %d", s.Count)
	}
	if math.Abs(s.Mean-5) > 1e-12 {
		t.Fatalf("mean = %v, want 5", s.Mean)
	}
	// Sample standard deviation of this classic example is ~2.138.
	if math.Abs(s.StdDev-2.138089935299395) > 1e-9 {
		t.Fatalf("stddev = %v", s.StdDev)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Fatalf("min/max = %v/%v", s.Min, s.Max)
	}
	if math.Abs(s.P50-4.5) > 1e-12 {
		t.Fatalf("median = %v, want 4.5", s.P50)
	}
	if !strings.Contains(s.String(), "mean=5.0000") {
		t.Fatalf("String: %q", s.String())
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.Count != 0 || s.String() != "n=0" {
		t.Fatalf("empty summary malformed: %+v", s)
	}
	if Mean(nil) != 0 || Max(nil) != 0 || Min(nil) != 0 || Quantile(nil, 0.5) != 0 {
		t.Fatalf("empty-sample helpers must return 0")
	}
}

func TestQuantileBounds(t *testing.T) {
	xs := []float64{3, 1, 2}
	if Quantile(xs, 0) != 1 || Quantile(xs, 1) != 3 {
		t.Fatalf("extreme quantiles wrong")
	}
	if Quantile(xs, -1) != 1 || Quantile(xs, 2) != 3 {
		t.Fatalf("out-of-range q must clamp")
	}
	if math.Abs(Quantile(xs, 0.5)-2) > 1e-12 {
		t.Fatalf("median of {1,2,3} = %v", Quantile(xs, 0.5))
	}
}

// TestSummarizeMatchesQuantile guards the sort-once fast path in Summarize
// against drifting from the standalone Quantile, min and max helpers, and
// checks the input sample is left unsorted.
func TestSummarizeMatchesQuantile(t *testing.T) {
	f := func(raw []float64) bool {
		var xs []float64
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		orig := append([]float64(nil), xs...)
		s := Summarize(xs)
		for i := range xs {
			if xs[i] != orig[i] {
				return false // Summarize must not mutate its input
			}
		}
		return s.P50 == Quantile(xs, 0.50) &&
			s.P90 == Quantile(xs, 0.90) &&
			s.P99 == Quantile(xs, 0.99) &&
			s.Min == Min(xs) && s.Max == Max(xs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatalf("Summarize disagrees with Quantile/Min/Max: %v", err)
	}
}

func TestMinMaxMean(t *testing.T) {
	xs := []float64{-1, 5, 2}
	if Min(xs) != -1 || Max(xs) != 5 || math.Abs(Mean(xs)-2) > 1e-12 {
		t.Fatalf("Min/Max/Mean broken")
	}
}

func TestQuantilePropertyWithinRange(t *testing.T) {
	f := func(raw []float64, qRaw uint8) bool {
		var xs []float64
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		q := float64(qRaw) / 255
		v := Quantile(xs, q)
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		return v >= sorted[0]-1e-12 && v <= sorted[len(sorted)-1]+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatalf("property violated: %v", err)
	}
}

func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, a, b uint8) bool {
		var xs []float64
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		qa, qb := float64(a)/255, float64(b)/255
		if qa > qb {
			qa, qb = qb, qa
		}
		return Quantile(xs, qa) <= Quantile(xs, qb)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatalf("monotonicity violated: %v", err)
	}
}

// TestMergeSummariesMatchesPooled checks the exact fields of MergeSummaries
// against Summarize over the pooled sample; quantiles are intentionally zero
// (not mergeable from summaries — re-estimate from a merged histogram).
func TestMergeSummariesMatchesPooled(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		a := make([]float64, 1+rng.Intn(100))
		b := make([]float64, 1+rng.Intn(100))
		for i := range a {
			a[i] = rng.NormFloat64() * 10
		}
		for i := range b {
			b[i] = 5 + rng.NormFloat64()*3
		}
		got := MergeSummaries(Summarize(a), Summarize(b))
		want := Summarize(append(append([]float64(nil), a...), b...))
		if got.Count != want.Count {
			t.Fatalf("count %d != %d", got.Count, want.Count)
		}
		for _, f := range []struct {
			name string
			g, w float64
		}{
			{"mean", got.Mean, want.Mean},
			{"stddev", got.StdDev, want.StdDev},
			{"min", got.Min, want.Min},
			{"max", got.Max, want.Max},
		} {
			if math.Abs(f.g-f.w) > 1e-9*(1+math.Abs(f.w)) {
				t.Fatalf("trial %d: %s merged %g pooled %g", trial, f.name, f.g, f.w)
			}
		}
		if got.P50 != 0 || got.P99 != 0 {
			t.Fatalf("merged quantiles must be zero (unmergeable), got %+v", got)
		}
	}
	// Identities with the empty summary.
	s := Summarize([]float64{1, 2, 3})
	if got := MergeSummaries(s, Summary{}); got.Count != 3 || got.Mean != s.Mean {
		t.Fatalf("merge with empty lost data: %+v", got)
	}
	if got := MergeSummaries(Summary{}, s); got.Count != 3 || got.StdDev != s.StdDev {
		t.Fatalf("merge with empty lost data: %+v", got)
	}
}
