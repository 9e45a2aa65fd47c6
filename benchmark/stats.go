package main

import (
	"math"
	"sort"
)

// summary describes one timing metric's samples. Value is the headline
// estimate: the fastest sample. On the shared 2-vCPU VMs this benchmark runs
// on, interference is one-sided (a busy sibling thread only ever slows a
// sample down) and comes in bursts lasting seconds, so the median of
// identical work moved by ±18 % between consecutive 10 s windows while the
// minimum repeated within 2 % (README, "Why best-of-n"). The quartiles and
// the tail are reported beside it so the noise stays visible.
type summary struct {
	Value  float64 `json:"value"`
	N      int     `json:"n"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	// PHi is the highest percentile with at least ten samples beyond it
	// (PHiLabel names it, e.g. "p99"); zero when N < 20.
	PHi      float64 `json:"p_hi,omitempty"`
	PHiLabel string  `json:"p_hi_label,omitempty"`
	// SpreadPct is how far the headline estimate moves when it is taken
	// from four interleaved quarters of the samples instead of all of them:
	// (max − min of the four estimates) / Value. It is the within-run
	// stand-in for run-to-run spread that -compare uses for "unresolved".
	SpreadPct float64 `json:"spread_pct"`
}

// quantile returns the q-quantile (0..1) of sorted by linear interpolation.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func minOf(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

// argMin returns the index of the smallest element (0 for an empty slice).
func argMin(xs []float64) int {
	best := 0
	for i, x := range xs {
		if x < xs[best] {
			best = i
		}
	}
	return best
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// summarize reduces timing samples to a summary; samples is not modified.
func summarize(samples []float64) summary {
	if len(samples) == 0 {
		return summary{}
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	out := summary{
		Value:  s[0],
		N:      len(s),
		Q1:     quantile(s, 0.25),
		Median: quantile(s, 0.5),
		Q3:     quantile(s, 0.75),
	}
	for _, p := range []struct {
		q     float64
		label string
	}{{0.999, "p99.9"}, {0.99, "p99"}, {0.95, "p95"}, {0.9, "p90"}, {0.5, "p50"}} {
		if float64(len(s))*(1-p.q) >= 10 {
			out.PHi, out.PHiLabel = quantile(s, p.q), p.label
			break
		}
	}
	if len(samples) >= 8 && out.Value > 0 {
		lo, hi := math.Inf(1), math.Inf(-1)
		for k := 0; k < 4; k++ {
			m := math.Inf(1)
			for i := k; i < len(samples); i += 4 {
				if samples[i] < m {
					m = samples[i]
				}
			}
			lo, hi = math.Min(lo, m), math.Max(hi, m)
		}
		out.SpreadPct = 100 * (hi - lo) / out.Value
	}
	return out
}

// scaled multiplies every field that carries the metric's unit.
func (s summary) scaled(f float64) summary {
	s.Value *= f
	s.Q1 *= f
	s.Median *= f
	s.Q3 *= f
	s.PHi *= f
	return s
}

// exact wraps a value that is computed, not timed (counts, virtual-time
// percentages): it repeats exactly, so it has no spread.
func exact(v float64) summary { return summary{Value: v, N: 1, Q1: v, Median: v, Q3: v} }
