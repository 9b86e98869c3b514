package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want bool
	}{
		{19, 50, false}, {20, 50, true},
		{99, 90, false}, {100, 90, true},
		{999, 99, false}, {1000, 99, true},
		{9999, 99.9, false}, {10000, 99.9, true},
	} {
		if got := supported(tc.n, tc.q); got != tc.want {
			t.Errorf("supported(%d, p%g) = %v, want %v", tc.n, tc.q, got, tc.want)
		}
	}
	for _, tc := range []struct {
		n    int
		want float64
	}{{0, 0}, {19, 0}, {20, 50}, {999, 90}, {1000, 99}, {10000, 99.9}} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
	// p99 is omitted below 1000 samples: tail falls back to p90.
	xs := make([]float64, 999)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got, want := tail(xs), percentile(xs, 90); got != want {
		t.Errorf("tail of 999 samples = %g, want the p90 %g", got, want)
	}
	xs = append(xs, 1000)
	if got := tail(xs); got != 990 {
		t.Errorf("tail of 1000 samples = %g, want the p99 990", got)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct{ q, want float64 }{{50, 5}, {90, 9}, {99, 10}, {100, 10}, {0, 1}} {
		if got := percentile(xs, tc.q); got != tc.want {
			t.Errorf("p%g = %g, want %g", tc.q, got, tc.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %g, want 0", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %g, want 2", got)
	}
}

func TestSelfTime(t *testing.T) {
	parent := span{start: 100, end: 200}
	for _, tc := range []struct {
		name     string
		children []span
		want     time.Duration
	}{
		{"no children", nil, 100},
		{"one child", []span{{start: 120, end: 150}}, 70},
		{"disjoint children", []span{{start: 110, end: 120}, {start: 150, end: 170}}, 70},
		{"overlapping children count once", []span{{start: 110, end: 150}, {start: 140, end: 160}}, 50},
		{"nested children count once", []span{{start: 110, end: 190}, {start: 120, end: 130}}, 20},
		{"children clipped to the parent", []span{{start: 50, end: 110}, {start: 190, end: 250}}, 80},
		{"child outside the parent", []span{{start: 10, end: 90}}, 100},
		{"touching children", []span{{start: 100, end: 150}, {start: 150, end: 200}}, 0},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: self time %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestCPUDeltaAccounting(t *testing.T) {
	before := cpuTimes{user: 10 * time.Millisecond, sys: 5 * time.Millisecond}
	after := cpuTimes{user: 40 * time.Millisecond, sys: 15 * time.Millisecond}
	if got := msPerReq(before, after, 10); got != 4 {
		t.Errorf("msPerReq = %g, want (30+10)ms / 10 = 4", got)
	}
	if got := msPerReq(before, after, 0); got != 0 {
		t.Errorf("msPerReq with no requests = %g, want 0", got)
	}

	// Burning CPU on this goroutine shows up in the getrusage delta.
	start := readCPU()
	spinUntil := time.Now().Add(50 * time.Millisecond)
	x := 0.0
	for time.Now().Before(spinUntil) {
		x += math.Sqrt(x + 1)
	}
	end := readCPU()
	spent := (end.user - start.user) + (end.sys - start.sys)
	if spent < 25*time.Millisecond || spent > 5*time.Second {
		t.Errorf("50ms of spinning accounted as %v of CPU (x=%g)", spent, x)
	}
	if got := msPerReq(start, end, 1); math.Abs(got-float64(spent)/float64(time.Millisecond)) > 1e-9 {
		t.Errorf("msPerReq over one request = %g, want %v", got, spent)
	}
}

func TestInterquartileMean(t *testing.T) {
	// The outer quarters (1, 2 and 100, 200) are dropped.
	if got := interquartileMean([]float64{100, 3, 1, 4, 200, 5, 2, 6}); got != 4.5 {
		t.Errorf("interquartileMean = %g, want 4.5", got)
	}
	if got := interquartileMean([]float64{7}); got != 7 {
		t.Errorf("interquartileMean of one sample = %g, want 7", got)
	}
	if got := interquartileMean(nil); got != 0 {
		t.Errorf("interquartileMean of no samples = %g, want 0", got)
	}
}

// TestRefScale checks the reference-speed arithmetic: a rate measured
// while the reference ran at half its nominal rate counts double, a
// latency measured while the reference's latency was double counts half,
// and a window without a reference (the open loop) is left as measured.
func TestRefScale(t *testing.T) {
	if got := 1000 * refScale(refNominal, refNominal/2); got != 2000 {
		t.Errorf("rate at half reference speed: %g, want 2000", got)
	}
	if got := 4 * refScale(refP50Nominal, 2*refP50Nominal); got != 2 {
		t.Errorf("latency at double reference latency: %g, want 2", got)
	}
	if got := 3 * refScale(refP90Nominal, refP90Nominal); got != 3 {
		t.Errorf("latency at nominal reference latency: %g, want 3", got)
	}
	if got := refScale(refNominal, 0); got != 1 {
		t.Errorf("scale without a reference: %g, want 1", got)
	}
}
