// Package promtext writes and parses the Prometheus text exposition format
// (version 0.0.4) for crserved, crrouter and the load harness, so one
// module knows the format.
package promtext

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"crsharing/internal/stats"
)

// ContentType is the media type of the exposition format.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// Writer renders series, each after its # HELP and # TYPE lines. Write
// errors are left to the HTTP client, which sees a truncated body.
type Writer struct{ W io.Writer }

func (w Writer) header(name, help, kind string) {
	fmt.Fprintf(w.W, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, kind)
}

// Counter writes one unlabelled counter sample.
func (w Writer) Counter(name, help string, v float64) {
	w.header(name, help, "counter")
	fmt.Fprintf(w.W, "%s %s\n", name, formatValue(v))
}

// Gauge writes one unlabelled gauge sample.
func (w Writer) Gauge(name, help string, v float64) {
	w.header(name, help, "gauge")
	fmt.Fprintf(w.W, "%s %s\n", name, formatValue(v))
}

// ByTenant writes a counter or gauge series with a tenant label per row,
// rows sorted by tenant; no rows write nothing.
func (w Writer) ByTenant(name, help, kind string, rows map[string]float64) {
	if len(rows) == 0 {
		return
	}
	keys := make([]string, 0, len(rows))
	for k := range rows {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	w.header(name, help, kind)
	for _, k := range keys {
		fmt.Fprintf(w.W, "%s{tenant=%q} %s\n", name, k, formatValue(rows[k]))
	}
}

// Histogram writes h as cumulative "le" buckets, one per decade of the
// stats layout, then _sum and _count.
func (w Writer) Histogram(name, help string, h *stats.Histogram) {
	w.header(name, help, "histogram")
	var count uint64
	for _, b := range h.Decades() {
		fmt.Fprintf(w.W, "%s_bucket{le=%q} %d\n", name, strconv.FormatFloat(b.Hi, 'g', -1, 64), b.Count)
		count = b.Count
	}
	fmt.Fprintf(w.W, "%s_sum %s\n%s_count %d\n", name, formatValue(h.Sum()), name, count)
}

// formatValue writes whole numbers below 2^53 as integers, so counters have
// no exponent, and anything else in its shortest form.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1<<53 {
		return strconv.FormatFloat(v, 'f', -1, 64)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// ErrFormat marks an exposition that breaks the Writer's rules.
var ErrFormat = errors.New("promtext: malformed exposition")

// Parse returns every well-formed sample keyed by series, labels included.
// It checks the Writer's rules — a sample follows its metric's # HELP (with
// text) and # TYPE (counter, gauge or histogram, the last owning _bucket,
// _sum and _count), no blank or other comment lines — and reports the first
// break wrapping ErrFormat next to the samples, for scrapers to ignore.
func Parse(r io.Reader) (map[string]float64, error) {
	help := map[string]bool{}
	typed := map[string]string{}
	samples := map[string]float64{}
	var bad error
	fail := func(n int, format string, args ...any) {
		if bad == nil {
			bad = fmt.Errorf("%w: line %d: %s", ErrFormat, n, fmt.Sprintf(format, args...))
		}
	}
	sc := bufio.NewScanner(r)
	for n := 1; sc.Scan(); n++ {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "# HELP "):
			name, doc, _ := strings.Cut(line[len("# HELP "):], " ")
			if doc == "" {
				fail(n, "HELP without text: %q", line)
			}
			help[name] = true
		case strings.HasPrefix(line, "# TYPE "):
			name, kind, _ := strings.Cut(line[len("# TYPE "):], " ")
			if kind != "counter" && kind != "gauge" && kind != "histogram" {
				fail(n, "invalid TYPE: %q", line)
			}
			typed[name] = kind
		case line == "" || strings.HasPrefix(line, "#"):
			fail(n, "unexpected line %q", line)
		default:
			i := strings.LastIndexByte(line, ' ')
			v, err := strconv.ParseFloat(line[i+1:], 64)
			if i < 0 || err != nil {
				fail(n, "malformed sample %q", line)
				continue
			}
			series := line[:i]
			name, _, _ := strings.Cut(series, "{")
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				if base, ok := strings.CutSuffix(name, suffix); ok && typed[base] == "histogram" {
					name = base
				}
			}
			if !help[name] || typed[name] == "" {
				fail(n, "sample %q not preceded by its HELP and TYPE lines", series)
			}
			samples[series] = v
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("promtext: %w", err)
	}
	return samples, bad
}
