package obs

import (
	"math"
	"testing"
)

// TestHistogramBoundedMemory is the regression test for the unbounded
// trace.Sample-backed histogram this implementation replaced: ten million
// observations must not grow the histogram. After the one-time lazy
// allocation, Observe must be allocation-free, so memory stays
// O(buckets + reservoir) for the life of a scraped process.
func TestHistogramBoundedMemory(t *testing.T) {
	h := &Histogram{}
	h.Observe(1) // one-time lazy allocation

	const perRun = 1_000_000
	v := 0.0
	allocs := testing.AllocsPerRun(10, func() {
		for i := 0; i < perRun; i++ {
			h.Observe(v)
			v += 1e-3
		}
	})
	if allocs > 0 {
		t.Fatalf("Observe allocated %.1f times per %d observations; want 0", allocs, perRun)
	}
	if h.N() < 10*perRun {
		t.Fatalf("N = %d, want >= %d", h.N(), 10*perRun)
	}
	// White-box ceiling: the retained slices never exceed their fixed caps.
	h.mu.Lock()
	if got := len(h.reservoir); got > reservoirCap {
		t.Errorf("reservoir holds %d values, cap is %d", got, reservoirCap)
	}
	if got := cap(h.reservoir); got > reservoirCap {
		t.Errorf("reservoir capacity grew to %d, cap is %d", got, reservoirCap)
	}
	if got := len(h.buckets); got != histBuckets+1 {
		t.Errorf("bucket slice has %d entries, want %d", got, histBuckets+1)
	}
	h.mu.Unlock()
}

func TestHistogramQuantileEstimateBeyondReservoir(t *testing.T) {
	h := &Histogram{}
	// Uniform 0..1 over 20x the reservoir capacity: quantiles become
	// reservoir estimates but must stay near the true values.
	n := reservoirCap * 20
	for i := 0; i < n; i++ {
		h.Observe(float64(i) / float64(n-1))
	}
	for _, q := range []float64{0.1, 0.5, 0.9} {
		got := h.Quantile(q)
		if math.Abs(got-q) > 0.1 {
			t.Errorf("Quantile(%v) = %v, want within 0.1 of %v", q, got, q)
		}
	}
	if h.Sum() == 0 {
		t.Error("Sum = 0 after observations")
	}
}

func TestHistogramExport(t *testing.T) {
	h := &Histogram{}
	// One observation per decade: 0.5ms, 5ms, 50ms.
	for _, v := range []float64{0.5, 5, 50} {
		h.Observe(v)
	}
	e := h.export("lat.ms")
	if e.Name != "lat.ms" || e.Count != 3 || e.Sum != 55.5 {
		t.Fatalf("export header = %+v", e)
	}
	if len(e.Bounds) != histBuckets || len(e.Cumulative) != histBuckets {
		t.Fatalf("export has %d bounds, %d cumulative; want %d", len(e.Bounds), len(e.Cumulative), histBuckets)
	}
	// Cumulative counts are monotonically nondecreasing and end at Count
	// (no observation exceeded the last bound here).
	prev := uint64(0)
	for i, c := range e.Cumulative {
		if c < prev {
			t.Fatalf("cumulative not monotone at %d: %d < %d", i, c, prev)
		}
		prev = c
	}
	if prev != e.Count {
		t.Errorf("cumulative ends at %d, want %d", prev, e.Count)
	}
	// Spot-check one bound: 0.5 falls in the bucket with bound 0.512
	// (1e-3 doubled nine times), so every bound >= 0.512 counts it.
	idx := bucketIndex(0.5)
	if e.Cumulative[idx] < 1 {
		t.Errorf("bucket %d (bound %v) missing the 0.5 observation", idx, e.Bounds[idx])
	}

	// Overflow: a value beyond the last bound appears in Count only.
	h2 := &Histogram{}
	h2.Observe(e.Bounds[histBuckets-1] * 4)
	e2 := h2.export("over")
	if e2.Count != 1 || e2.Cumulative[histBuckets-1] != 0 {
		t.Errorf("overflow export = count %d, last cumulative %d; want 1, 0", e2.Count, e2.Cumulative[histBuckets-1])
	}

	var np *Histogram
	ne := np.export("nil")
	if ne.Count != 0 || ne.Bounds != nil {
		t.Errorf("nil export = %+v", ne)
	}
}

func TestRegistryExportSorted(t *testing.T) {
	r := NewRegistry()
	r.Counter("z.count").Inc()
	r.Counter("a.count").Add(2)
	r.Gauge(`drift.pct{task="1"}`).Set(12.5)
	r.Gauge(`drift.pct{task="0"}`).Set(-3)
	r.Histogram("cycle.ms").Observe(1)
	e := r.Export()
	if len(e.Counters) != 2 || e.Counters[0].Name != "a.count" || e.Counters[1].Name != "z.count" {
		t.Errorf("counters = %+v", e.Counters)
	}
	if len(e.Gauges) != 2 || e.Gauges[0].Name != `drift.pct{task="0"}` || e.Gauges[1].Name != `drift.pct{task="1"}` {
		t.Errorf("gauges = %+v", e.Gauges)
	}
	if len(e.Histograms) != 1 || e.Histograms[0].Count != 1 {
		t.Errorf("histograms = %+v", e.Histograms)
	}
	var nr *Registry
	ne := nr.Export()
	if len(ne.Counters)+len(ne.Gauges)+len(ne.Histograms) != 0 {
		t.Errorf("nil registry export = %+v", ne)
	}
}
