package trace

import (
	"math"
	"testing"
	"testing/quick"
)

func TestEmptySample(t *testing.T) {
	var s Sample
	if s.Percentile(50) != 0 {
		t.Error("empty sample should report zero")
	}
}

func TestSingleObservation(t *testing.T) {
	var s Sample
	s.AddAll(3)
	if got := s.Percentile(50); got != 3 {
		t.Errorf("single observation: median=%v", got)
	}
}

func TestPercentiles(t *testing.T) {
	var s Sample
	for i := 1; i <= 100; i++ {
		s.AddAll(float64(i))
	}
	if got := s.Percentile(0); got != 1 {
		t.Errorf("P0 = %v", got)
	}
	if got := s.Percentile(100); got != 100 {
		t.Errorf("P100 = %v", got)
	}
	if got := s.Percentile(50); math.Abs(got-50.5) > 1e-9 {
		t.Errorf("median = %v", got)
	}
	if got := s.Percentile(150); got != 100 {
		t.Errorf("clamped P150 = %v", got)
	}
	if got := s.Percentile(-5); got != 1 {
		t.Errorf("clamped P-5 = %v", got)
	}
	// Observations added after a percentile (which sorts in place) are
	// sorted in before the next one.
	s.AddAll(0)
	if got := s.Percentile(0); got != 0 {
		t.Errorf("P0 after a later AddAll = %v, want 0", got)
	}
}

// TestQuantile checks Percentile's interpolation between order statistics
// at the fraction q of the sample.
func TestQuantile(t *testing.T) {
	tests := []struct {
		name   string
		values []float64
		q      float64
		want   float64
	}{
		{"empty", nil, 0.5, 0},
		{"empty-zero", nil, 0, 0},
		{"single", []float64{7}, 0.5, 7},
		{"single-extremes", []float64{7}, 1, 7},
		{"two-midpoint", []float64{1, 3}, 0.5, 2},
		{"interpolated", []float64{10, 20, 30, 40}, 0.25, 17.5},
		{"duplicate-heavy", []float64{5, 5, 5, 5, 5, 5, 9}, 0.5, 5},
		{"duplicate-heavy-tail", []float64{5, 5, 5, 5, 5, 5, 9}, 1, 9},
		{"all-duplicates", []float64{2, 2, 2, 2}, 0.9, 2},
		{"below-range", []float64{1, 2, 3}, -0.5, 1},
		{"above-range", []float64{1, 2, 3}, 1.5, 3},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			var s Sample
			s.AddAll(tc.values...)
			if got := s.Percentile(100 * tc.q); math.Abs(got-tc.want) > 1e-12 {
				t.Errorf("Percentile(%v) = %v, want %v", 100*tc.q, got, tc.want)
			}
		})
	}
}

func TestDeviationPct(t *testing.T) {
	tests := []struct {
		v, ref, want float64
	}{
		{110, 100, 10},
		{90, 100, -10},
		{5, 0, 0},
		{5, math.Inf(1), 0},
		{5, math.NaN(), 0},
		{100, 100, 0},
	}
	for _, tc := range tests {
		if got := DeviationPct(tc.v, tc.ref); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("DeviationPct(%v, %v) = %v, want %v", tc.v, tc.ref, got, tc.want)
		}
	}
}

func TestMinTracker(t *testing.T) {
	var m MinTracker
	if !math.IsInf(m.Min(), 1) || m.Index() != -1 {
		t.Errorf("zero tracker: min=%v index=%d", m.Min(), m.Index())
	}
	m.Observe(0, 5)
	m.Observe(1, 3)
	m.Observe(2, 3) // tie: the earlier index wins
	m.Observe(3, 8)
	if m.Min() != 3 || m.Index() != 1 {
		t.Errorf("tracker: min=%v index=%d, want 3/1", m.Min(), m.Index())
	}
}

// Property: min ≤ every percentile ≤ max.
func TestPercentileBoundsProperty(t *testing.T) {
	f := func(raw []int16, qRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		var s Sample
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range raw {
			s.AddAll(float64(v))
			lo, hi = math.Min(lo, float64(v)), math.Max(hi, float64(v))
		}
		q := float64(qRaw) / 255 * 100
		p := s.Percentile(q)
		return p >= lo-1e-9 && p <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
