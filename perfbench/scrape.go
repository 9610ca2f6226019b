package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// The server exports its stage histograms only as log buckets (12.5%
// wide), so the serve.* stage percentiles below carry that resolution;
// means come from the exact _sum/_count series. Every percentile the
// benchmark measures itself is exact (see samples).

// promSnap is one scrape of the server's Prometheus exposition:
// counters, gauges and histogram _sum/_count as plain values, histogram
// buckets as cumulative (le, count) pairs in exposition order.
type promSnap struct {
	values  map[string]float64
	buckets map[string][]bucket
}

type bucket struct {
	le    float64
	count float64
}

// httpGet fetches one telemetry URL with a short timeout.
func httpGet(base, path string) ([]byte, error) {
	c := http.Client{Timeout: 5 * time.Second}
	resp, err := c.Get(base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("read %s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return body, nil
}

// scrapeProm fetches and parses base/metrics.
func scrapeProm(base string) (promSnap, error) {
	body, err := httpGet(base, "/metrics")
	if err != nil {
		return promSnap{}, err
	}
	return parseProm(string(body))
}

func parseProm(text string) (promSnap, error) {
	ps := promSnap{values: map[string]float64{}, buckets: map[string][]bucket{}}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, val, ok := strings.Cut(line, " ")
		if !ok {
			return ps, fmt.Errorf("metrics line %q", line)
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return ps, fmt.Errorf("metrics line %q: %w", line, err)
		}
		name, label, isBucket := strings.Cut(key, `_bucket{le="`)
		if !isBucket {
			ps.values[key] = v
			continue
		}
		le := strings.TrimSuffix(label, `"}`)
		if le == "+Inf" {
			continue // equals _count
		}
		edge, err := strconv.ParseFloat(le, 64)
		if err != nil {
			return ps, fmt.Errorf("bucket edge %q: %w", le, err)
		}
		ps.buckets[name] = append(ps.buckets[name], bucket{le: edge, count: v})
	}
	return ps, sc.Err()
}

// counterDelta is after − before of a counter or histogram series.
func counterDelta(before, after promSnap, name string) float64 {
	return after.values[name] - before.values[name]
}

// histDelta is the distribution of the observations a histogram took
// between two scrapes.
type histDelta struct {
	count, sum float64
	buckets    []bucket // non-cumulative, ascending le
}

func deltaHist(before, after promSnap, name string) histDelta {
	h := histDelta{
		count: counterDelta(before, after, name+"_count"),
		sum:   counterDelta(before, after, name+"_sum"),
	}
	prev := map[float64]float64{}
	for _, b := range before.buckets[name] {
		prev[b.le] = b.count
	}
	// Cumulative counts per edge; edges absent before had count equal to
	// the highest cumulative count below them at that time.
	var lastAfter, lastBefore float64
	for _, b := range after.buckets[name] {
		cb, ok := prev[b.le]
		if !ok {
			cb = lastBefore
		}
		n := (b.count - lastAfter) - (cb - lastBefore)
		lastAfter, lastBefore = b.count, cb
		if n > 0 {
			h.buckets = append(h.buckets, bucket{le: b.le, count: n})
		}
	}
	return h
}

// quantile returns the inclusive upper edge of the bucket holding the
// nearest-rank q-quantile, or 0 for an empty delta.
func (h histDelta) quantile(q float64) float64 {
	if h.count <= 0 {
		return 0
	}
	rank := q * h.count
	seen := 0.0
	for _, b := range h.buckets {
		seen += b.count
		if seen >= rank {
			return b.le
		}
	}
	if n := len(h.buckets); n > 0 {
		return h.buckets[n-1].le
	}
	return 0
}

// mean is the exact mean from the _sum/_count deltas.
func (h histDelta) mean() float64 {
	if h.count <= 0 {
		return 0
	}
	return h.sum / h.count
}

// memStats is the runtime.MemStats subset the server's heap profile
// page reports.
type memStats struct {
	TotalAlloc float64
	NumGC      float64
}

// scrapeMemStats reads TotalAlloc and NumGC from the "# Name = value"
// trailer of /debug/pprof/heap?debug=1.
func scrapeMemStats(base string) (memStats, error) {
	body, err := httpGet(base, "/debug/pprof/heap?debug=1")
	if err != nil {
		return memStats{}, err
	}
	var m memStats
	found := 0
	for _, line := range strings.Split(string(body), "\n") {
		k, v, ok := strings.Cut(strings.TrimPrefix(line, "# "), " = ")
		if !ok {
			continue
		}
		var dst *float64
		switch k {
		case "TotalAlloc":
			dst = &m.TotalAlloc
		case "NumGC":
			dst = &m.NumGC
		default:
			continue
		}
		if *dst, err = strconv.ParseFloat(strings.TrimSpace(v), 64); err != nil {
			return m, fmt.Errorf("heap profile %s: %w", k, err)
		}
		found++
	}
	if found != 2 {
		return m, fmt.Errorf("heap profile lacks TotalAlloc/NumGC")
	}
	return m, nil
}

// scrapeJSON fetches base+path and decodes it into v.
func scrapeJSON(base, path string, v any) error {
	body, err := httpGet(base, path)
	if err != nil {
		return err
	}
	return json.Unmarshal(body, v)
}
