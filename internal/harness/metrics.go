package harness

import (
	"errors"
	"fmt"
	"maps"
	"net/http"
	"strings"

	"crsharing/internal/promtext"
)

// MetricsSnapshot is a parsed /metrics scrape: sample name to value. Only
// un-labelled samples are kept, which covers every metric the service
// exposes.
type MetricsSnapshot map[string]float64

// ScrapeMetrics fetches and parses the Prometheus text exposition at url
// (typically <base>/metrics).
func ScrapeMetrics(client *http.Client, url string) (MetricsSnapshot, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, fmt.Errorf("harness: scraping %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("harness: scraping %s: status %s", url, resp.Status)
	}
	// Only the values matter here; format errors are the servers' tests' job.
	samples, err := promtext.Parse(resp.Body)
	if err != nil && !errors.Is(err, promtext.ErrFormat) {
		return nil, fmt.Errorf("harness: scraping %s: %w", url, err)
	}
	maps.DeleteFunc(samples, func(series string, _ float64) bool { return strings.Contains(series, "{") })
	return samples, nil
}

// scrapeAll scrapes every URL and sums the samples into one snapshot. All the
// series the harness reads are counters, so summing before-snapshots and
// summing after-snapshots makes Delta the fleet-wide movement — this is how a
// run driving a crrouter accounts cache hits across every backend at once.
func scrapeAll(client *http.Client, urls []string) (MetricsSnapshot, error) {
	sum := make(MetricsSnapshot)
	for _, url := range urls {
		snap, err := ScrapeMetrics(client, url)
		if err != nil {
			return nil, err
		}
		for k, v := range snap {
			sum[k] += v
		}
	}
	return sum, nil
}

// Delta returns after-before for every sample present in after; samples
// absent from before count from zero.
func (before MetricsSnapshot) Delta(after MetricsSnapshot) MetricsSnapshot {
	d := make(MetricsSnapshot, len(after))
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// CacheAccounting summarises the cache-related movement of a metrics delta.
type CacheAccounting struct {
	// FreshSolves is the number of solver invocations (cache misses and
	// uncached solves) the run caused.
	FreshSolves float64 `json:"fresh_solves"`
	// CacheServed is the number of requests answered from the memo cache or
	// by coalescing onto an in-flight solve.
	CacheServed float64 `json:"cache_served"`
	// HitRatio is CacheServed / (CacheServed + FreshSolves), 0 when idle.
	HitRatio float64 `json:"hit_ratio"`
}

// Cache reads the cache accounting off a metrics delta.
func (d MetricsSnapshot) Cache() CacheAccounting {
	acc := CacheAccounting{
		FreshSolves: d["crsharing_solves_total"],
		CacheServed: d["crsharing_cache_served_total"],
	}
	if total := acc.FreshSolves + acc.CacheServed; total > 0 {
		acc.HitRatio = acc.CacheServed / total
	}
	return acc
}
