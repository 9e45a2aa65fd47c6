package obs

import (
	"math"
	"sort"
	"sync"
)

// Histogram bucket layout and reservoir sizing. Every histogram shares one
// fixed exponential bucket layout, so the Prometheus exposition ("le"
// bounds) is identical across metrics.
// Bounds are in the unit observed — milliseconds everywhere in this
// repository — starting at 1µs-resolution (0.001 ms) and doubling, which
// spans sub-microsecond exchanges up to multi-day runs in histBuckets
// buckets. Values above the last bound land in an overflow bucket
// (Prometheus +Inf).
const (
	histFirstBound = 1e-3 // first bucket upper bound (inclusive)
	histGrowth     = 2    // exponential growth factor between bounds
	histBuckets    = 40   // finite bounds; one +Inf overflow bucket follows

	// reservoirCap bounds the per-histogram sample memory used for
	// quantile estimates. Up to reservoirCap observations quantiles are
	// exact (linear interpolation over every value, matching
	// trace.Sample); beyond it the reservoir is a uniform random sample
	// maintained by deterministic reservoir sampling (algorithm R with a
	// fixed-seed xorshift generator), so quantiles become estimates while
	// memory stays O(reservoirCap).
	reservoirCap = 512
)

// histBounds are the shared finite bucket upper bounds, ascending.
var histBounds = func() []float64 {
	b := make([]float64, histBuckets)
	v := float64(histFirstBound)
	for i := range b {
		b[i] = v
		v *= histGrowth
	}
	return b
}()

// BucketBounds returns a copy of the shared finite bucket upper bounds
// (ascending; observations above the last bound count toward +Inf).
func BucketBounds() []float64 {
	return append([]float64(nil), histBounds...)
}

// Histogram accumulates scalar observations in bounded memory: fixed
// exponential buckets for the distribution's shape plus a bounded
// reservoir for quantile estimates. Unlike the earlier trace.Sample-backed
// form it never retains every observation, so a long-running scraped
// process stays O(buckets + reservoir) per histogram regardless of how
// many values it observes.
type Histogram struct {
	mu    sync.Mutex
	count uint64
	sum   float64
	min   float64
	max   float64
	// buckets has histBuckets+1 entries: per-bound counts plus the
	// overflow bucket. Lazily allocated on first Observe so unused
	// instruments stay one mutex wide.
	buckets []uint64
	// reservoir holds up to reservoirCap observations; rng drives the
	// deterministic replacement policy once full.
	reservoir []float64
	rng       uint64
	// sorted caches the reservoir in ascending order for quantile reads;
	// invalidated by Observe.
	sorted      []float64
	sortedValid bool
}

// bucketIndex maps an observation to its bucket: the first bound >= v, or
// the overflow bucket when v exceeds every bound (NaN also overflows).
func bucketIndex(v float64) int {
	return sort.SearchFloat64s(histBounds, v)
}

// xorshift64 advances the deterministic reservoir-replacement generator.
func xorshift64(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// initLocked performs the one-time lazy allocation. Callers hold h.mu.
func (h *Histogram) initLocked() {
	if h.buckets != nil {
		return
	}
	h.buckets = make([]uint64, histBuckets+1)
	h.reservoir = make([]float64, 0, reservoirCap)
	h.rng = 0x9E3779B97F4A7C15 // fixed seed: runs are reproducible
	h.min = math.Inf(1)
	h.max = math.Inf(-1)
}

// Observe folds in one observation. No-op on a nil histogram. After the
// one-time lazy allocation Observe allocates nothing, whatever the
// observation count.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.initLocked()
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.buckets[bucketIndex(v)]++
	if len(h.reservoir) < reservoirCap {
		h.reservoir = append(h.reservoir, v)
	} else {
		h.rng = xorshift64(h.rng)
		if j := h.rng % h.count; j < reservoirCap {
			h.reservoir[j] = v
		}
	}
	h.sortedValid = false
	h.mu.Unlock()
}

// N reports the observation count (0 for a nil histogram).
func (h *Histogram) N() int {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return int(h.count)
}

// Sum reports the sum of all observations (0 for a nil histogram).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Quantile reports the q-th quantile (0 ≤ q ≤ 1) of the observations:
// exact (linear interpolation between order statistics, as trace.Sample
// computes it) while the observation count is within the reservoir
// capacity, a reservoir estimate beyond it. 0 for a nil or empty
// histogram.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.quantileLocked(q)
}

// quantileLocked computes a quantile over the sorted reservoir cache.
// Callers hold h.mu.
func (h *Histogram) quantileLocked(q float64) float64 {
	n := len(h.reservoir)
	if n == 0 {
		return 0
	}
	if !h.sortedValid {
		h.sorted = append(h.sorted[:0], h.reservoir...)
		sort.Float64s(h.sorted)
		h.sortedValid = true
	}
	if q <= 0 {
		return h.sorted[0]
	}
	if q >= 1 {
		return h.sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return h.sorted[lo]
	}
	frac := pos - float64(lo)
	return h.sorted[lo]*(1-frac) + h.sorted[hi]*frac
}

// Summary digests the histogram (zero summary for nil or empty). Count,
// Sum, Mean, Min, and Max are exact; the quantiles are exact up to
// reservoirCap observations and reservoir estimates beyond.
func (h *Histogram) Summary() HistSummary {
	if h == nil {
		return HistSummary{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return HistSummary{}
	}
	return HistSummary{
		N:    int(h.count),
		Sum:  h.sum,
		Mean: h.sum / float64(h.count),
		Min:  h.min,
		Max:  h.max,
		P50:  h.quantileLocked(Quantiles[0]),
		P90:  h.quantileLocked(Quantiles[1]),
		P99:  h.quantileLocked(Quantiles[2]),
	}
}

// HistExport is the exposition-layer view of one histogram: cumulative
// bucket counts over the shared bounds, plus the exact totals — what a
// Prometheus text writer needs.
type HistExport struct {
	// Name is the registry name, possibly carrying a {label="value"}
	// suffix (see Export).
	Name string
	// Count and Sum are the exact totals over every observation.
	Count uint64
	Sum   float64
	// Bounds are the shared finite upper bounds (ascending). Cumulative
	// has one entry per bound: observations ≤ that bound. Observations
	// above the last bound are included only in Count (+Inf).
	Bounds     []float64
	Cumulative []uint64
	// Summary carries the quantile digest for human-readable output.
	Summary HistSummary
}

// export snapshots the histogram for exposition. A nil or never-observed
// histogram exports a zero Count with no buckets.
func (h *Histogram) export(name string) HistExport {
	out := HistExport{Name: name}
	if h == nil {
		return out
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	out.Count = h.count
	out.Sum = h.sum
	if h.count == 0 {
		return out
	}
	out.Bounds = histBounds
	out.Cumulative = make([]uint64, histBuckets)
	cum := uint64(0)
	for i := 0; i < histBuckets; i++ {
		cum += h.buckets[i]
		out.Cumulative[i] = cum
	}
	out.Summary = HistSummary{
		N:    int(h.count),
		Sum:  h.sum,
		Mean: h.sum / float64(h.count),
		Min:  h.min,
		Max:  h.max,
		P50:  h.quantileLocked(Quantiles[0]),
		P90:  h.quantileLocked(Quantiles[1]),
		P99:  h.quantileLocked(Quantiles[2]),
	}
	return out
}
