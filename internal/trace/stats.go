// Package trace provides the small statistics the experiment harness and
// the drift monitor use: sample percentiles, deviation percentages and a
// running minimum.
//
//netpart:deterministic
package trace

import (
	"math"
	"sort"
)

// Sample accumulates scalar observations and reports their percentiles.
// The zero value is ready to use.
type Sample struct {
	values []float64
	sorted bool
}

// AddAll appends every observation in vs.
func (s *Sample) AddAll(vs ...float64) {
	s.values = append(s.values, vs...)
	s.sorted = false
}

// Percentile reports the q-th percentile (0 ≤ q ≤ 100) using linear
// interpolation between order statistics. It returns 0 for an empty sample.
func (s *Sample) Percentile(q float64) float64 {
	n := len(s.values)
	if n == 0 {
		return 0
	}
	if !s.sorted {
		sort.Float64s(s.values)
		s.sorted = true
	}
	if q <= 0 {
		return s.values[0]
	}
	if q >= 100 {
		return s.values[n-1]
	}
	pos := q / 100 * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s.values[lo]
	}
	frac := pos - float64(lo)
	return s.values[lo]*(1-frac) + s.values[hi]*frac
}
