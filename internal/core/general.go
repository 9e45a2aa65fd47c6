package core

import "encoding/binary"

// PartitionGlobal addresses the general partitioning problem of Section
// 5.0 that the paper leaves as future work: the locality-first heuristic
// never trades faster processors for extra cross-segment bandwidth, and
// the bisection assumes a single minimum of T_c(p), but router costs make
// the surface multimodal (e.g. N=300, where partially filled
// configurations like 5+3 beat every locality-first prefix).
//
// The algorithm is multi-start descent with pairwise-coordinate sweeps:
// from each start point, every pair of clusters (k, l) is jointly scanned
// over its full {0..N_k} × {0..N_l} sub-lattice with the other clusters
// held fixed, repeating until a full sweep yields no improvement. Joint
// pair moves capture the coupling that traps single-coordinate descent
// (trading processors of one cluster against another across the router).
// Single-coordinate local minima cannot trap it, and its cost is
// O(K²·P²) per sweep — polynomial in the number of clusters, where the
// exhaustive oracle's Π(N_i+1) is exponential (the paper's K=5, P=20
// example: ~4.4k evaluations against the oracle's 4 million). Start
// points: the locality-first heuristic's choice, the full network (filled
// fastest-first up to one processor per PDU), and each cluster alone.
func PartitionGlobal(e *Estimator) (Result, error) {
	heur, err := Partition(e)
	if err != nil {
		return Result{}, err
	}
	s, err := e.begin("global")
	if err != nil {
		return Result{}, err
	}
	e.evaluations = heur.Evaluations // the start's probes are this search's too
	counts := s.cfg.Counts

	// Every start is a copy: the heuristic's counts are its Result's (and
	// its winner event's), and the walk's counts move.
	best := append([]int(nil), heur.Config.Counts...)
	starts := [][]int{append([]int(nil), best...), make([]int, len(counts))}
	for i, left := 0, s.numPDUs; i < len(counts); i++ {
		starts[1][i] = min(s.order[i].Available, left)
		left -= starts[1][i]
		if alone := min(s.order[i].Available, s.numPDUs); alone > 0 {
			starts = append(starts, make([]int, len(counts)))
			starts[len(starts)-1][i] = alone
		}
	}

	// Memoize T_c per configuration, keyed on the full counts: different
	// starts revisit the same configurations. evalCounts evaluates the
	// walk's counts as they stand, keeping the best.
	memo := make(map[string]float64)
	var key []byte
	s.tc = heur.TcMs
	evalCounts := func() (float64, bool, error) {
		key = key[:0]
		for _, c := range counts {
			key = binary.AppendUvarint(key, uint64(c))
		}
		if total := s.cfg.Total(); total == 0 || total > s.numPDUs {
			return 0, false, nil
		}
		if tc, ok := memo[string(key)]; ok {
			return tc, true, nil
		}
		tc, err := s.evaluate()
		if err != nil {
			return 0, false, err
		}
		memo[string(key)] = tc
		if tc < s.tc {
			copy(best, counts)
			s.tc = tc
		}
		return tc, true, nil
	}

	for _, cur := range starts {
		copy(counts, cur)
		curTc, ok, err := evalCounts()
		if err != nil {
			return Result{}, err
		}
		if !ok {
			continue
		}
		// sweep scans the pair (k, l) jointly, or cluster k alone when
		// l == k, with the other counts at cur's, and moves cur to the
		// best it finds.
		improved := true
		sweep := func(k, l int) error {
			bestK, bestL := cur[k], cur[l]
			for pk := 0; pk <= s.order[k].Available; pk++ {
				lo, hi := 0, s.order[l].Available
				if k == l {
					lo, hi = pk, pk
				}
				for pl := lo; pl <= hi; pl++ {
					copy(counts, cur)
					counts[k], counts[l] = pk, pl
					tc, ok, err := evalCounts()
					if err != nil {
						return err
					}
					if ok && tc < curTc-1e-12 {
						curTc, bestK, bestL, improved = tc, pk, pl, true
					}
				}
			}
			cur[k], cur[l] = bestK, bestL
			return nil
		}
		for improved {
			improved = false
			if len(counts) == 1 {
				if err := sweep(0, 0); err != nil {
					return Result{}, err
				}
			}
			for i := range counts {
				for j := i + 1; j < len(counts); j++ {
					if err := sweep(i, j); err != nil {
						return Result{}, err
					}
				}
			}
		}
	}
	copy(counts, best)
	return s.settle()
}
