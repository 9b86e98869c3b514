package stats

import (
	"cmp"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"sync/atomic"
)

// Layout names the one histogram layout: 20 log buckets per decade (≈12%
// wide) over (1e-6, 1e9], fitting solve seconds, latencies in ms and node
// counts, plus a zero bucket (≤ 1e-6) and an overflow bucket (> 1e9).
// Buckets are closed above, like Prometheus "le" buckets.
const Layout = "log10/20:1e-06..1e+09"

const minExp, maxExp, perDecade = -6, 9, 20
const numBuckets = (maxExp-minExp)*perDecade + 2

// upper[i] is the upper bound of bucket i (Pow is exact on whole decades).
var upper = func() []float64 {
	b := make([]float64, numBuckets-1)
	for i := range b {
		b[i] = math.Pow(10, minExp+float64(i)/perDecade)
	}
	return b
}()

// Histogram is a mergeable histogram with the fixed Layout. The zero value
// is empty; Observe is lock-free. It must not be copied after first use.
type Histogram struct {
	counts  [numBuckets]atomic.Uint64
	sum     atomic.Uint64 // float64 bits
	foreign string        // layout of a decoded foreign histogram (holds no counts)
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.counts[sort.SearchFloat64s(upper, v)].Add(1)
	h.addSum(v)
}

func (h *Histogram) addSum(v float64) {
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Sum returns the sum of the recorded samples.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Count returns the number of recorded samples.
func (h *Histogram) Count() uint64 {
	d := h.Decades()
	return d[len(d)-1].Count
}

// LayoutMismatchError reports a Merge with a histogram decoded from a
// foreign layout, which would misbin every sample.
type LayoutMismatchError struct{ Got string }

func (e *LayoutMismatchError) Error() string {
	return fmt.Sprintf("stats: histogram layout %q, want %q", e.Got, Layout)
}

// Merge folds o into h. Counts add exactly, so merging K shard histograms
// equals one histogram over the pooled samples. If either side has a
// foreign layout, Merge returns a *LayoutMismatchError and leaves h as is.
func (h *Histogram) Merge(o *Histogram) error {
	if l := cmp.Or(h.foreign, o.foreign); l != "" {
		return &LayoutMismatchError{Got: l}
	}
	for i := range o.counts {
		h.counts[i].Add(o.counts[i].Load())
	}
	h.addSum(o.Sum())
	return nil
}

// Bucket counts the samples in (Lo, Hi].
type Bucket struct {
	Lo, Hi float64
	Count  uint64
}

// bucket returns bucket i; the zero bucket starts at 0, overflow ends at +Inf.
func bucket(i int, count uint64) Bucket {
	b := Bucket{Hi: math.Inf(1), Count: count}
	if i > 0 {
		b.Lo = upper[i-1]
	}
	if i < len(upper) {
		b.Hi = upper[i]
	}
	return b
}

// Buckets returns the occupied buckets in ascending order.
func (h *Histogram) Buckets() []Bucket {
	var out []Bucket
	for i := range h.counts {
		if c := h.counts[i].Load(); c > 0 {
			out = append(out, bucket(i, c))
		}
	}
	return out
}

// Decades returns the cumulative Prometheus buckets: Count samples are at or
// below Hi, for each decade 1e-6 … 1e9 and +Inf (read in one pass).
func (h *Histogram) Decades() []Bucket {
	var out []Bucket
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		if i%perDecade == 0 || i == numBuckets-1 {
			out = append(out, Bucket{Hi: bucket(i, 0).Hi, Count: cum})
		}
	}
	return out
}

// Quantile estimates the q-quantile within one bucket (≈12%), interpolating
// geometrically at rank q·Count. The zero bucket reads as 0, overflow as 1e9.
func (h *Histogram) Quantile(q float64) float64 {
	buckets := h.Buckets()
	var total uint64
	for _, b := range buckets {
		total += b.Count
	}
	rank := math.Min(math.Max(q, 0), 1) * float64(total)
	var cum float64
	for _, b := range buckets {
		next := cum + float64(b.Count)
		if rank <= next {
			if b.Lo == 0 || math.IsInf(b.Hi, 1) {
				return b.Lo
			}
			return b.Lo * math.Pow(b.Hi/b.Lo, (rank-cum)/float64(b.Count))
		}
		cum = next
	}
	return 0
}

// histogramJSON is the wire form; Counts maps bucket index to count.
type histogramJSON struct {
	Layout string         `json:"layout"`
	Sum    float64        `json:"sum"`
	Counts map[int]uint64 `json:"counts,omitempty"`
}

// MarshalJSON implements json.Marshaler.
func (h *Histogram) MarshalJSON() ([]byte, error) {
	w := histogramJSON{Layout: cmp.Or(h.foreign, Layout), Sum: h.Sum(), Counts: map[int]uint64{}}
	for i := range h.counts {
		if c := h.counts[i].Load(); c > 0 {
			w.Counts[i] = c
		}
	}
	return json.Marshal(w)
}

// UnmarshalJSON implements json.Unmarshaler. A foreign layout decodes
// without counts and fails any later Merge.
func (h *Histogram) UnmarshalJSON(data []byte) error {
	var w histogramJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	if w.Layout != Layout {
		h.foreign = cmp.Or(w.Layout, "none")
		return nil
	}
	for i, c := range w.Counts {
		if i < 0 || i >= numBuckets {
			return fmt.Errorf("stats: histogram bucket %d outside the layout", i)
		}
		h.counts[i].Store(c)
	}
	h.sum.Store(math.Float64bits(w.Sum))
	return nil
}
