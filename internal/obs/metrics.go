// Package obs is the observability substrate: a zero-dependency metrics
// registry (counters, gauges, bounded-memory histograms) and a structured
// event recorder with JSONL and Chrome trace-event output.
//
// Every type is nil-safe: methods on a nil *Registry, *Counter, *Gauge,
// *Histogram, or *Recorder are no-ops (or return zero values), so
// instrumented code paths cost nothing — no branches beyond the receiver
// nil check and no allocations — when observability is disabled. The
// estimator/search layer (internal/core), the SPMD runtimes (internal/spmd,
// internal/stencil, internal/simnet, internal/mmps), and all four commands
// thread through this package. The serving layer (internal/obs/serve)
// exposes a registry over HTTP for long-running processes, which is why
// histograms hold O(buckets + reservoir) memory rather than every
// observation (see histogram.go).
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Quantiles are the fixed histogram quantile buckets every summary
// reports, chosen to match the latency quantiles partitioning decisions
// care about (median, tail, worst case).
var Quantiles = []float64{0.5, 0.9, 0.99}

// Counter is a monotonically increasing integer metric.
type Counter struct {
	v atomic.Int64
}

// Add increases the counter by delta. No-op on a nil counter.
func (c *Counter) Add(delta int64) {
	if c == nil {
		return
	}
	c.v.Add(delta)
}

// Inc increases the counter by one. No-op on a nil counter.
func (c *Counter) Inc() { c.Add(1) }

// Value reports the current count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value metric.
type Gauge struct {
	mu sync.Mutex
	v  float64
}

// Set records the current value. No-op on a nil gauge.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.v = v
	g.mu.Unlock()
}

// Value reports the last value set (0 for a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.v
}

// HistSummary is a point-in-time histogram digest over the fixed
// Quantiles buckets.
type HistSummary struct {
	N    int     `json:"n"`
	Sum  float64 `json:"sum"`
	Mean float64 `json:"mean"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P99  float64 `json:"p99"`
}

// Registry is a named collection of metrics. Metric instruments are
// created on first use and live for the registry's lifetime; looking one
// up twice returns the same instrument.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it if needed. A nil registry
// returns a nil counter, whose methods are no-ops.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it if needed. A nil registry
// returns a nil gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it if needed. A nil
// registry returns a nil histogram.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Snapshot is a point-in-time copy of every metric in a registry.
type Snapshot struct {
	Counters   map[string]int64       `json:"counters,omitempty"`
	Gauges     map[string]float64     `json:"gauges,omitempty"`
	Histograms map[string]HistSummary `json:"histograms,omitempty"`
}

// Snapshot digests the registry (empty snapshot for nil): Export's
// values, keyed by name.
func (r *Registry) Snapshot() Snapshot {
	ex := r.Export()
	snap := Snapshot{
		Counters:   make(map[string]int64, len(ex.Counters)),
		Gauges:     make(map[string]float64, len(ex.Gauges)),
		Histograms: make(map[string]HistSummary, len(ex.Histograms)),
	}
	for _, c := range ex.Counters {
		snap.Counters[c.Name] = c.Value
	}
	for _, g := range ex.Gauges {
		snap.Gauges[g.Name] = g.Value
	}
	for _, h := range ex.Histograms {
		snap.Histograms[h.Name] = h.Summary
	}
	return snap
}

// WriteJSON writes the snapshot as one JSON object.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(r.Snapshot())
}

// Render prints the snapshot as a human-readable, name-sorted summary
// table ("" for an empty registry).
func (r *Registry) Render() string {
	snap := r.Snapshot()
	var b strings.Builder
	names := make([]string, 0, len(snap.Counters))
	for name := range snap.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&b, "%-36s %d\n", name, snap.Counters[name])
	}
	names = names[:0]
	for name := range snap.Gauges {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&b, "%-36s %.4g\n", name, snap.Gauges[name])
	}
	names = names[:0]
	for name := range snap.Histograms {
		// A resolved-but-never-observed histogram (e.g. an instrumented
		// path the run didn't take) carries no information; skip it.
		if snap.Histograms[name].N > 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		h := snap.Histograms[name]
		fmt.Fprintf(&b, "%-36s n=%d mean=%.4g p50=%.4g p90=%.4g p99=%.4g max=%.4g\n",
			name, h.N, h.Mean, h.P50, h.P90, h.P99, h.Max)
	}
	return b.String()
}
