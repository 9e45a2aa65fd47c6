package obs

import "sort"

// Metric names are dotted paths ("stencil.cycle_ms"). A name may carry one
// Prometheus-style label suffix — `drift.pct{task="3"}` — which the
// registry treats as an opaque part of the name (each labeled series is
// its own instrument) and the exposition layer (internal/obs/serve) emits
// as labels of one metric family. Instruments of a family share the base
// name before the '{'.

// CounterExport is one counter's exposition view.
type CounterExport struct {
	Name  string
	Value int64
}

// GaugeExport is one gauge's exposition view.
type GaugeExport struct {
	Name  string
	Value float64
}

// Export is a point-in-time, name-sorted snapshot of every instrument in
// a registry, in the shape the exposition layer consumes: stable ordering
// (so scrapes are byte-comparable) and cumulative histogram buckets.
type Export struct {
	Counters   []CounterExport
	Gauges     []GaugeExport
	Histograms []HistExport
}

// Export snapshots the registry for exposition (empty export for nil).
// Entries are sorted by full name, so series of one labeled family are
// adjacent.
func (r *Registry) Export() Export {
	var out Export
	if r == nil {
		return out
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.Unlock()

	out.Counters = make([]CounterExport, 0, len(counters))
	for name, c := range counters {
		out.Counters = append(out.Counters, CounterExport{Name: name, Value: c.Value()})
	}
	sort.Slice(out.Counters, func(i, j int) bool { return out.Counters[i].Name < out.Counters[j].Name })

	out.Gauges = make([]GaugeExport, 0, len(gauges))
	for name, g := range gauges {
		out.Gauges = append(out.Gauges, GaugeExport{Name: name, Value: g.Value()})
	}
	sort.Slice(out.Gauges, func(i, j int) bool { return out.Gauges[i].Name < out.Gauges[j].Name })

	out.Histograms = make([]HistExport, 0, len(hists))
	for name, h := range hists {
		out.Histograms = append(out.Histograms, h.export(name))
	}
	sort.Slice(out.Histograms, func(i, j int) bool { return out.Histograms[i].Name < out.Histograms[j].Name })
	return out
}
