package stats

import (
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// bucketFactor is the ratio of a bucket's upper to its lower bound.
var bucketFactor = math.Pow(10, 1.0/perDecade)

func TestHistogram(t *testing.T) {
	var h Histogram
	for _, x := range []float64{0.5, 0.5, 3, 3, 3, 2000} {
		h.Observe(x)
	}
	if h.Count() != 6 || h.Sum() != 2010 {
		t.Fatalf("count %d sum %g, want 6 and 2010", h.Count(), h.Sum())
	}
	got := h.Buckets()
	if len(got) != 3 || got[0].Count != 2 || got[1].Count != 3 || got[2].Count != 1 {
		t.Fatalf("buckets %+v", got)
	}
	for i, x := range []float64{0.5, 3, 2000} {
		if !(got[i].Lo < x && x <= got[i].Hi) || got[i].Hi/got[i].Lo > bucketFactor*(1+1e-12) {
			t.Fatalf("sample %g in bucket (%g, %g]", x, got[i].Lo, got[i].Hi)
		}
	}
}

// TestHistogramEdgeBucket pins the Prometheus "le" convention: a sample
// exactly at a bucket's upper bound belongs to that bucket, and the next
// float above it to the following one.
func TestHistogramEdgeBucket(t *testing.T) {
	for _, bound := range []float64{1e-6, 1e-3, 1, 10, upper[7], 1e9} {
		var h Histogram
		h.Observe(bound)
		h.Observe(math.Nextafter(bound, math.Inf(1)))
		b := h.Buckets()
		if len(b) != 2 || b[0].Hi != bound || b[1].Lo != bound {
			t.Fatalf("samples at and just above %g binned as %+v", bound, b)
		}
	}
}

// TestHistogramDecades checks the cumulative "le" view: one bucket per
// decade of the layout plus +Inf, never decreasing, each counting the
// samples at or below its bound.
func TestHistogramDecades(t *testing.T) {
	var h Histogram
	samples := []float64{0, 1e-7, 0.5, 5, 5, 50, 1e9, 2e9}
	for _, x := range samples {
		h.Observe(x)
	}
	d := h.Decades()
	if len(d) != maxExp-minExp+2 || d[0].Hi != 1e-6 || d[len(d)-2].Hi != 1e9 || !math.IsInf(d[len(d)-1].Hi, 1) {
		t.Fatalf("decade bounds %+v", d)
	}
	for _, b := range d {
		var want uint64
		for _, x := range samples {
			if x <= b.Hi {
				want++
			}
		}
		if b.Count != want {
			t.Fatalf("le=%g counts %d, want %d", b.Hi, b.Count, want)
		}
	}
}

// TestHistogramMergeMatchesPooled is the shard-merge property: merging K
// shard histograms equals one histogram over the pooled samples, bucket for
// bucket, and the merged quantile estimates land within one bucket of the
// exact sample quantiles.
func TestHistogramMergeMatchesPooled(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		var pooled, merged Histogram
		var samples []float64
		shards := 2 + rng.Intn(5)
		for s := 0; s < shards; s++ {
			var h Histogram
			n := 1 + rng.Intn(300)
			for i := 0; i < n; i++ {
				// Log-normal around 1 with a spread of several decades.
				x := math.Pow(10, rng.NormFloat64()*1.5)
				samples = append(samples, x)
				pooled.Observe(x)
				h.Observe(x)
			}
			if err := merged.Merge(&h); err != nil {
				t.Fatal(err)
			}
		}
		if merged.Count() != uint64(len(samples)) {
			t.Fatalf("trial %d: merged count %d, samples %d", trial, merged.Count(), len(samples))
		}
		if math.Abs(merged.Sum()-pooled.Sum()) > 1e-9*pooled.Sum() {
			t.Fatalf("trial %d: merged sum %g, pooled %g", trial, merged.Sum(), pooled.Sum())
		}
		for i := range merged.counts {
			if merged.counts[i].Load() != pooled.counts[i].Load() {
				t.Fatalf("trial %d: bucket %d merged %d pooled %d", trial, i, merged.counts[i].Load(), pooled.counts[i].Load())
			}
		}
		sort.Float64s(samples)
		for _, q := range []float64{0.5, 0.9, 0.99} {
			// The sample at the rank the histogram walks to.
			exact := samples[int(math.Ceil(q*float64(len(samples))))-1]
			if r := merged.Quantile(q) / exact; r > bucketFactor || r < 1/bucketFactor {
				t.Fatalf("trial %d: q=%g estimate %g vs exact %g beyond one bucket", trial, q, merged.Quantile(q), exact)
			}
		}
	}
}

// TestHistogramMergeBoundsMismatch pins the typed refusal: a histogram
// decoded from a foreign layout must not merge, in either direction, and
// the failed merge leaves the receiver untouched.
func TestHistogramMergeBoundsMismatch(t *testing.T) {
	var base Histogram
	base.Observe(0.5)
	for _, raw := range []string{
		`{"lo":-2,"hi":5,"buckets":[1,2,3]}`,
		`{"layout":"log10/10:1e-03..1e+06","sum":1,"counts":{"3":1}}`,
	} {
		var foreign Histogram
		if err := json.Unmarshal([]byte(raw), &foreign); err != nil {
			t.Fatal(err)
		}
		for _, err := range []error{base.Merge(&foreign), foreign.Merge(&base)} {
			var lm *LayoutMismatchError
			if !errors.As(err, &lm) || lm.Error() == "" {
				t.Fatalf("%s: Merge returned %v, want *LayoutMismatchError", raw, err)
			}
		}
		if base.Count() != 1 || base.Sum() != 0.5 {
			t.Fatalf("failed merge mutated the receiver: count %d sum %g", base.Count(), base.Sum())
		}
	}
}

// TestHistogramOutOfRangeRegression pins that samples outside the layout's
// range are counted, never dropped: zero and below go to the zero bucket,
// above 1e9 to the overflow bucket. Both survive Merge and JSON, and the
// quantiles read them as 0 and 1e9.
func TestHistogramOutOfRangeRegression(t *testing.T) {
	var h Histogram
	for _, x := range []float64{-5, 0, 1e-9, 2e9, 1e12} {
		h.Observe(x)
	}
	b := h.Buckets()
	if h.Count() != 5 || len(b) != 2 || b[0].Count != 3 || b[0].Hi != 1e-6 || b[1].Count != 2 || !math.IsInf(b[1].Hi, 1) {
		t.Fatalf("out-of-range samples misbinned: %+v", b)
	}
	raw, err := json.Marshal(&h)
	if err != nil {
		t.Fatal(err)
	}
	var back Histogram
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if err := back.Merge(&h); err != nil {
		t.Fatal(err)
	}
	if back.Count() != 10 {
		t.Fatalf("round trip and merge lost samples: %+v", back.Buckets())
	}
	if q := back.Quantile(0); q != 0 {
		t.Fatalf("q0 = %g, want 0 (zero bucket)", q)
	}
	if q := back.Quantile(1); q != 1e9 {
		t.Fatalf("q1 = %g, want 1e9 (overflow bucket)", q)
	}
}

// TestHistogramJSONRoundTrip checks the wire form keeps every count and the
// sum, and that counts outside the layout do not decode.
func TestHistogramJSONRoundTrip(t *testing.T) {
	var h, empty Histogram
	for _, x := range []float64{0.02, 0.5, 0.5, 7, 300} {
		h.Observe(x)
	}
	for _, src := range []*Histogram{&h, &empty} {
		raw, err := json.Marshal(src)
		if err != nil {
			t.Fatal(err)
		}
		var back Histogram
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatal(err)
		}
		for i := range src.counts {
			if back.counts[i].Load() != src.counts[i].Load() {
				t.Fatalf("%s: bucket %d decoded %d, want %d", raw, i, back.counts[i].Load(), src.counts[i].Load())
			}
		}
		if back.Sum() != src.Sum() {
			t.Fatalf("%s: sum %g, want %g", raw, back.Sum(), src.Sum())
		}
	}
	var bad Histogram
	if err := json.Unmarshal([]byte(`{"layout":"`+Layout+`","counts":{"302":1}}`), &bad); err == nil {
		t.Fatal("counts beyond the last bucket decoded without an error")
	}
}

// TestHistogramConcurrentObserve runs writers, a merger and readers at
// once (meaningful under -race) and checks no sample is lost.
func TestHistogramConcurrentObserve(t *testing.T) {
	const writers, perWriter = 8, 2000
	var h Histogram
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				h.Observe(float64(1 + (w*perWriter+i)%1000))
			}
		}(w)
	}
	var sink Histogram
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			d := h.Decades()
			for j := 1; j < len(d); j++ {
				if d[j].Count < d[j-1].Count {
					t.Errorf("cumulative buckets decreased: %+v", d)
					return
				}
			}
			h.Quantile(0.99)
		}
		if err := sink.Merge(&h); err != nil {
			t.Error(err)
		}
	}()
	wg.Wait()
	<-done
	if got := h.Count(); got != writers*perWriter {
		t.Fatalf("count %d, want %d", got, writers*perWriter)
	}
	var want float64
	for i := 0; i < writers*perWriter; i++ {
		want += float64(1 + i%1000)
	}
	if h.Sum() != want {
		t.Fatalf("sum %g, want %g", h.Sum(), want)
	}
}
