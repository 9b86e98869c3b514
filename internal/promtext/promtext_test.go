package promtext

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"

	"crsharing/internal/stats"
)

// TestWriteParseRoundTrip writes every kind of series the Writer knows and
// reads it back: Parse accepts the output without a FormatError and returns
// every value the writer was given.
func TestWriteParseRoundTrip(t *testing.T) {
	var h stats.Histogram
	for _, v := range []float64{0, 0.002, 0.002, 0.5, 40, 3e9} {
		h.Observe(v)
	}
	var buf bytes.Buffer
	w := Writer{W: &buf}
	w.Counter("c_total", "A counter.", 12345678)
	w.Counter("f_seconds_total", "A float counter.", 1.25)
	w.Gauge("g", "A gauge.", -0.5)
	w.Gauge("big", "A large gauge.", 1e300)
	w.ByTenant("t_total", "By tenant.", "counter", map[string]float64{"b": 2, "a": 1, "with space": 3})
	w.ByTenant("empty", "Never written.", "gauge", nil)
	w.Histogram("h_seconds", "A histogram.", &h)

	text := buf.String()
	samples, err := Parse(&buf)
	if err != nil {
		t.Fatalf("%v\n%s", err, text)
	}
	want := map[string]float64{
		"c_total":                      12345678,
		"f_seconds_total":              1.25,
		"g":                            -0.5,
		"big":                          1e300,
		`t_total{tenant="a"}`:          1,
		`t_total{tenant="b"}`:          2,
		`t_total{tenant="with space"}`: 3,
		`h_seconds_bucket{le="1e-06"}`: 1,
		`h_seconds_bucket{le="0.001"}`: 1,
		`h_seconds_bucket{le="0.01"}`:  3,
		`h_seconds_bucket{le="1"}`:     4,
		`h_seconds_bucket{le="100"}`:   5,
		`h_seconds_bucket{le="1e+09"}`: 5,
		`h_seconds_bucket{le="+Inf"}`:  6,
		"h_seconds_sum":                h.Sum(),
		"h_seconds_count":              6,
	}
	for series, v := range want {
		if got, ok := samples[series]; !ok || got != v {
			t.Errorf("%s = %v (present %v), want %v", series, got, ok, v)
		}
	}
	if n := strings.Count(text, "h_seconds_bucket"); n != 17 {
		t.Errorf("%d histogram buckets, want one per decade 1e-6..1e9 plus +Inf", n)
	}
	if _, ok := samples["empty"]; ok || strings.Contains(text, "empty") {
		t.Error("empty labelled series was written")
	}
	if !strings.Contains(text, "\nc_total 12345678\n") {
		t.Errorf("integer counter written with an exponent:\n%s", text)
	}
	if math.IsNaN(samples["h_seconds_sum"]) {
		t.Error("histogram sum is NaN")
	}
}

// TestParseRejectsMalformed checks each rule Parse enforces, and that the
// well-formed samples still come back next to the ErrFormat error.
func TestParseRejectsMalformed(t *testing.T) {
	for _, c := range []struct{ name, text string }{
		{"no help", "# TYPE x counter\nx 1\n"},
		{"no type", "# HELP x Doc.\nx 1\n"},
		{"empty help", "# HELP x\n# TYPE x counter\nx 1\n"},
		{"bad type", "# HELP x Doc.\n# TYPE x summary\nx 1\n"},
		{"blank line", "# HELP x Doc.\n# TYPE x counter\n\nx 1\n"},
		{"comment", "# HELP x Doc.\n# TYPE x counter\n# note\nx 1\n"},
		{"bad value", "# HELP x Doc.\n# TYPE x counter\nx 1\ny one\n"},
		{"suffix of a counter", "# HELP x Doc.\n# TYPE x counter\nx 1\nx_count 1\n"},
	} {
		samples, err := Parse(strings.NewReader(c.text))
		if !errors.Is(err, ErrFormat) || !strings.Contains(err.Error(), "line ") {
			t.Errorf("%s: Parse returned %v, want ErrFormat with a line number", c.name, err)
			continue
		}
		if samples["x"] != 1 {
			t.Errorf("%s: well-formed sample lost: %v", c.name, samples)
		}
	}
}
