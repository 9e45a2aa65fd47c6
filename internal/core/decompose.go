package core

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"netpart/internal/cost"
	"netpart/internal/model"
)

// Vector is the partition vector A of Section 4.0: Vector[rank] is the
// number of PDUs assigned to the task with that rank, where ranks follow
// the contiguous placement order of the configuration (all of cluster 1's
// tasks, then cluster 2's, ...). The implementation is responsible for
// interpreting PDUs (rows, columns, blocks, particles).
type Vector []int

// Sum returns the total PDUs assigned.
func (v Vector) Sum() int {
	s := 0
	for _, a := range v {
		s += a
	}
	return s
}

// Decomposition errors.
var (
	ErrNoProcessors = errors.New("core: configuration has no processors")
	ErrTooFewPDUs   = errors.New("core: fewer PDUs than processors")
	// ErrBadConfig marks a configuration whose counts do not pair one for
	// one with its clusters, or that holds a negative count.
	ErrBadConfig = errors.New("core: malformed configuration")
)

// checkConfig refuses a configuration the equations cannot read.
//
//netpart:hotpath
func checkConfig(cfg cost.Config) error {
	bad := len(cfg.Counts) != len(cfg.Clusters)
	for _, c := range cfg.Counts {
		bad = bad || c < 0
	}
	if bad {
		return fmt.Errorf("%w: clusters %q with counts %v", ErrBadConfig, cfg.Clusters, cfg.Counts)
	}
	return nil
}

// RealShares computes Eq. 3: the (real-valued) number of PDUs per processor
// in each cluster of the configuration such that processors finish
// computation at the same time, assuming computation linear in PDUs:
//
//	A_i = numPDUs · (1/S_i) / Σ_j (P_j / S_j)
//
// where S_i is the per-operation time of cluster i for the given class.
// The returned slice is indexed like cfg.Clusters; entries for zero-count
// clusters are zero.
func RealShares(net *model.Network, cfg cost.Config, numPDUs int, class model.OpClass) ([]float64, error) {
	if err := checkConfig(cfg); err != nil {
		return nil, err
	}
	if cfg.Total() == 0 {
		return nil, ErrNoProcessors
	}
	denom := 0.0
	times := make([]float64, len(cfg.Clusters))
	for i, name := range cfg.Clusters {
		c := net.Cluster(name)
		if c == nil {
			return nil, fmt.Errorf("core: unknown cluster %q", name)
		}
		times[i] = c.OpTime(class)
		denom += float64(cfg.Counts[i]) / times[i]
	}
	shares := make([]float64, len(cfg.Clusters))
	for i := range cfg.Clusters {
		if cfg.Counts[i] > 0 {
			shares[i] = float64(numPDUs) / (times[i] * denom)
		}
	}
	return shares, nil
}

// Decompose computes the integer partition vector for a configuration from
// the Eq. 3 real shares, using largest-remainder rounding so the vector
// sums exactly to numPDUs. Every processor receives at least one PDU when
// numPDUs ≥ total processors; otherwise ErrTooFewPDUs is returned (the
// caller should shrink the configuration).
func Decompose(net *model.Network, cfg cost.Config, numPDUs int, class model.OpClass) (Vector, error) {
	shares, err := RealShares(net, cfg, numPDUs, class)
	if err != nil {
		return nil, err
	}
	return roundLargestRemainder(nil, shares, cfg.Counts, numPDUs)
}

// DecomposeGeneral computes a load-balanced partition vector when per-task
// computation is not linear in the PDU count (the general form referenced
// from [6]). ops must be strictly increasing in its argument with
// ops(0) = 0. The per-cluster shares A_i are chosen so that
// S_i·ops(A_i) is equal across clusters and Σ P_i·A_i = numPDUs, by nested
// bisection.
func DecomposeGeneral(net *model.Network, cfg cost.Config, numPDUs int, class model.OpClass, ops func(pdus float64) float64) (Vector, error) {
	if ops == nil {
		return Decompose(net, cfg, numPDUs, class)
	}
	if err := checkConfig(cfg); err != nil {
		return nil, err
	}
	if cfg.Total() == 0 {
		return nil, ErrNoProcessors
	}
	times := make([]float64, len(cfg.Clusters))
	for i, name := range cfg.Clusters {
		c := net.Cluster(name)
		if c == nil {
			return nil, fmt.Errorf("core: unknown cluster %q", name)
		}
		times[i] = c.OpTime(class)
	}
	// shareAt returns each active cluster's A_i for a common per-cycle
	// compute time t, via inner bisection of the monotone ops function.
	n := float64(numPDUs)
	shareAt := func(t float64) []float64 {
		shares := make([]float64, len(cfg.Clusters))
		for i := range cfg.Clusters {
			if cfg.Counts[i] == 0 {
				continue
			}
			target := t / times[i] // ops budget for this cluster's tasks
			lo, hi := 0.0, n
			for iter := 0; iter < 80; iter++ {
				mid := (lo + hi) / 2
				if ops(mid) < target {
					lo = mid
				} else {
					hi = mid
				}
			}
			shares[i] = (lo + hi) / 2
		}
		return shares
	}
	total := func(shares []float64) float64 {
		s := 0.0
		for i := range shares {
			s += shares[i] * float64(cfg.Counts[i])
		}
		return s
	}
	// Outer bisection on the common compute time t.
	slowest := 0.0
	for i := range times {
		if cfg.Counts[i] > 0 && times[i] > slowest {
			slowest = times[i]
		}
	}
	tLo, tHi := 0.0, slowest*ops(n)+1
	for iter := 0; iter < 100; iter++ {
		mid := (tLo + tHi) / 2
		if total(shareAt(mid)) < n {
			tLo = mid
		} else {
			tHi = mid
		}
	}
	return roundLargestRemainder(nil, shareAt((tLo+tHi)/2), cfg.Counts, numPDUs)
}

// roundLargestRemainder converts per-cluster real shares to the integer
// vector over the configuration's tasks (counts[i] tasks of cluster i, in
// cluster order), appended to v[:0] and summing to want: each task gets
// its share's floor, and the leftover units go to the largest fractional
// remainders, ties to the lower rank. Every entry is forced to at least 1.
func roundLargestRemainder(v Vector, shares []float64, counts []int, want int) (Vector, error) {
	v = v[:0]
	sum := 0
	var buf [8][2]int
	order := buf[:0] // (cluster, first rank) of the clusters with tasks
	for i, c := range counts {
		if c > 0 {
			order = append(order, [2]int{i, len(v)})
		}
		fl := int(shares[i])
		for range c {
			v = append(v, fl)
		}
		sum += c * fl
	}
	if want < len(v) {
		return nil, fmt.Errorf("%w: %d PDUs over %d processors", ErrTooFewPDUs, want, len(v))
	}
	// A cluster's tasks share one remainder and hold consecutive ranks, so
	// a stable sort of the clusters, largest remainder first, orders the
	// tasks as sorting them would.
	frac := func(o [2]int) float64 { return shares[o[0]] - float64(int(shares[o[0]])) }
	slices.SortStableFunc(order, func(a, b [2]int) int { return cmp.Compare(frac(b), frac(a)) })
	for len(order) > 0 && sum < want {
		for _, o := range order {
			for r := o[1]; r < o[1]+counts[o[0]] && sum < want; r++ {
				v[r]++
				sum++
			}
		}
	}
	// Guarantee a nonempty assignment per task by stealing from the largest.
	for i := range v {
		for v[i] < 1 {
			maxIdx := 0
			for j := range v {
				if v[j] > v[maxIdx] {
					maxIdx = j
				}
			}
			if v[maxIdx] <= 1 {
				return nil, fmt.Errorf("%w: cannot give every task a PDU", ErrTooFewPDUs)
			}
			v[maxIdx]--
			v[i]++
		}
	}
	if got := v.Sum(); got != want {
		return nil, fmt.Errorf("core: internal rounding error: vector sums to %d, want %d", got, want)
	}
	return v, nil
}
