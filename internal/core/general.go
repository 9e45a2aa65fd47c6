package core

import (
	"encoding/binary"

	"netpart/internal/cost"
)

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
// points: the locality-first heuristic's choice, the full network, and
// each cluster alone.
func PartitionGlobal(e *Estimator) (Result, error) {
	heur, err := Partition(e)
	if err != nil {
		return Result{}, err
	}
	s := e.begin("global")
	avail := make([]int, len(s.order))
	for i, c := range s.order {
		avail[i] = c.Available
	}

	starts := [][]int{
		append([]int(nil), heur.Config.Counts...),
		capTotal(append([]int(nil), avail...), s.numPDUs),
	}
	for k := range avail {
		st := make([]int, len(avail))
		st[k] = min(avail[k], s.numPDUs)
		if st[k] > 0 {
			starts = append(starts, st)
		}
	}

	// Memoize T_c per configuration, keyed on the full counts: different
	// starts revisit the same configurations.
	memo := make(map[string]float64)
	var key []byte
	best := heur.Estimate
	evalCfg := func(counts []int) (float64, bool, error) {
		total := 0
		key = key[:0]
		for _, c := range counts {
			total += c
			key = binary.AppendUvarint(key, uint64(c))
		}
		if total == 0 || total > s.numPDUs {
			return 0, false, nil
		}
		if tc, ok := memo[string(key)]; ok {
			return tc, true, nil
		}
		est, err := e.Estimate(cost.Config{Clusters: s.cfg.Clusters, Counts: counts})
		if err != nil {
			return 0, false, err
		}
		memo[string(key)] = est.TcMs
		if est.TcMs < best.TcMs {
			best = est.Detach()
		}
		return est.TcMs, true, nil
	}

	probe := make([]int, len(avail)) // reused per-probe vector (Estimate does not retain it)
	for _, start := range starts {
		cur := append([]int(nil), start...)
		curTc, ok, err := evalCfg(cur)
		if err != nil {
			return Result{}, err
		}
		if !ok {
			continue
		}
		for improved := true; improved; {
			improved = false
			sweep := func(k, l int) error {
				bestK, bestL := cur[k], cur[l]
				for pk := 0; pk <= avail[k]; pk++ {
					for pl := 0; ; pl++ {
						if k == l && pl > 0 {
							break // single-coordinate scan
						}
						if k != l && pl > avail[l] {
							break
						}
						copy(probe, cur)
						probe[k] = pk
						if k != l {
							probe[l] = pl
						}
						tc, ok, err := evalCfg(probe)
						if err != nil {
							return err
						}
						if ok && tc < curTc-1e-12 {
							curTc = tc
							bestK = pk
							if k != l {
								bestL = pl
							} else {
								bestL = cur[l]
							}
							improved = true
						}
						if k == l {
							break
						}
					}
				}
				cur[k], cur[l] = bestK, bestL
				return nil
			}
			if len(cur) == 1 {
				if err := sweep(0, 0); err != nil {
					return Result{}, err
				}
				continue
			}
			for k := 0; k < len(cur); k++ {
				for l := k + 1; l < len(cur); l++ {
					if err := sweep(k, l); err != nil {
						return Result{}, err
					}
				}
			}
		}
	}

	return s.finish(best)
}

// capTotal shrinks counts (from the last cluster backward) until their sum
// is at most limit.
func capTotal(counts []int, limit int) []int {
	total := 0
	for _, c := range counts {
		total += c
	}
	for k := len(counts) - 1; k >= 0 && total > limit; k-- {
		drop := total - limit
		if drop > counts[k] {
			drop = counts[k]
		}
		counts[k] -= drop
		total -= drop
	}
	return counts
}
