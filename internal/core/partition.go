package core

import (
	"netpart/internal/cost"
	"netpart/internal/model"
)

// Result is the output of the partitioning algorithm: the chosen processor
// configuration with its cost estimate, the integer partition vector, and
// the number of Eq. 3/Eq. 6 recomputations the search performed.
type Result struct {
	Estimate
	// Vector is the integer PDU assignment per task rank (contiguous
	// placement order).
	Vector Vector
	// Evaluations counts cost-estimate computations during the search, the
	// paper's O(K·log2 P) overhead measure.
	Evaluations int
}

// search is what the four Partition* strategies share: the clusters in
// fastest-first order, a configuration over them (all counts zero), and
// the program's PDU count.
type search struct {
	e        *Estimator
	strategy string
	order    []*model.Cluster
	cfg      cost.Config
	//netpart:unit pdus
	numPDUs int
}

// begin opens a search: clusters fastest-first, the evaluation counter
// reset, and the search-start event.
func (e *Estimator) begin(strategy string) search {
	order := e.Net.BySpeed(e.Ann.DominantCompute().Class)
	s := search{e: e, strategy: strategy, order: order, numPDUs: e.Ann.NumPDUs(), cfg: cost.Config{
		Clusters: make([]string, len(order)),
		Counts:   make([]int, len(order)),
	}}
	for i, c := range order {
		s.cfg.Clusters[i] = c.Name
	}
	e.ResetEvaluations()
	s.event(SearchEvent{Kind: EvSearchStart})
	return s
}

// event forwards one control-flow step, tagged with the strategy.
func (s *search) event(ev SearchEvent) {
	ev.Strategy = s.strategy
	s.e.searchEvent(ev)
}

// finish commits to best: its partition vector, the winner event, and the
// Result. A search that found no configuration has no processors.
func (s *search) finish(best Estimate) (Result, error) {
	if best.Config.Total() == 0 {
		return Result{}, ErrNoProcessors
	}
	vec, err := s.e.vector(best.Config)
	if err != nil {
		return Result{}, err
	}
	n := s.e.Evaluations()
	s.event(SearchEvent{Kind: EvWinner, Config: best.Config, P: best.Config.Total(), TcMs: best.TcMs, Evaluations: n})
	return Result{Estimate: best, Vector: vec, Evaluations: n}, nil
}

// vector computes the integer partition vector for a chosen configuration,
// honoring a non-linear dominant computation phase.
func (e *Estimator) vector(cfg cost.Config) (Vector, error) {
	comp := e.Ann.DominantCompute()
	if comp.TotalOps != nil {
		return DecomposeGeneral(e.Net, cfg, e.Ann.NumPDUs(), comp.Class, comp.TotalOps)
	}
	return Decompose(e.Net, cfg, e.Ann.NumPDUs(), comp.Class)
}

// Partition runs the Section 5.0 heuristic: clusters are ordered
// fastest-first; within the current cluster the unimodal T_c(p) curve
// (Fig. 3) is searched for its minimum by bisection; a slower cluster is
// opened only if the faster one was used in full (communication locality
// outweighs additional bandwidth). The search never admits more processors
// than PDUs.
func Partition(e *Estimator) (Result, error) { return localityFirst(e, "bisect", bisectCluster) }

// PartitionLinear is the ablation variant that scans every processor count
// within each cluster instead of bisecting. It makes identical choices when
// T_c(p) is unimodal, at O(P) evaluations instead of O(log2 P).
func PartitionLinear(e *Estimator) (Result, error) { return localityFirst(e, "scan", scanCluster) }

// minimiser chooses cluster k's count in [lo, hi] with the faster clusters
// fixed at the evaluator's base counts, given the best configuration so
// far (the zero Estimate before the first cluster). It returns the count
// and its detached estimate.
type minimiser func(s *search, d *DeltaEval, k, lo, hi int, incumbent Estimate) (int, Estimate, error)

// localityFirst is the Section 5.0 walk the bisect and scan searches
// share: clusters fastest-first, each cluster's count chosen by minimise
// over the counts the PDU budget allows, and a slower cluster opened only
// when the faster one is used in full. A cluster with nothing available
// is skipped. Every probe varies a single count of the walk's
// configuration, so the whole search runs on the estimator's evaluator;
// Rebase folds each settled cluster into its partial sums.
func localityFirst(e *Estimator, strategy string, minimise minimiser) (Result, error) {
	s := e.begin(strategy)
	d := &e.eval
	if err := d.bind(e, s.cfg); err != nil {
		return Result{}, err
	}
	var best Estimate
	for k, c := range s.order {
		if c.Available == 0 {
			continue
		}
		total := s.cfg.Total()
		hi := min(c.Available, s.numPDUs-total) //nolint:netpart/units reason=intentional pdus-vs-processors pun: the search grants at most one processor per PDU, so the processor budget is bounded by the PDU count
		lo := 0
		if total == 0 {
			lo = 1 // at least one processor overall
		}
		if hi < lo {
			break
		}
		s.event(SearchEvent{Kind: EvClusterOpen, Cluster: c.Name, Lo: lo, Hi: hi})
		d.Rebase()
		p, est, err := minimise(&s, d, k, lo, hi, best)
		if err != nil {
			return Result{}, err
		}
		s.cfg.Counts[k], best = p, est
		if p < c.Available {
			// The cluster was not exhausted: by the locality-first
			// heuristic, opening a slower cluster cannot help.
			s.event(SearchEvent{Kind: EvClusterSettle, Cluster: c.Name, P: p, TcMs: est.TcMs})
			break
		}
		s.event(SearchEvent{Kind: EvClusterExhaust, Cluster: c.Name, P: p, TcMs: est.TcMs})
	}
	return s.finish(best)
}

// bisectCluster is Partition's minimiser. It assumes T_c(p) is unimodal
// (Fig. 3: decreasing, then increasing) and bisects on the discrete slope
// sign — T_c(m) vs T_c(m+1) — so each step halves the range with at most
// two new evaluations, the paper's log2 P behavior. Probes are memoized
// per cluster; a memo hit is re-emitted as a cached candidate so the
// decision record shows every probe the search consulted.
func bisectCluster(s *search, d *DeltaEval, k, lo, hi int, _ Estimate) (int, Estimate, error) {
	name := s.cfg.Clusters[k]
	memo := make(map[int]Estimate, hi-lo+1)
	f := func(p int) (Estimate, error) {
		if est, ok := memo[p]; ok {
			s.e.observe(name, p, est, true)
			return est, nil
		}
		est, err := d.Probe(k, p)
		if err != nil {
			return est, err
		}
		// Detach before memoizing: est aliases the evaluator's buffers.
		est = est.Detach()
		memo[p] = est
		return est, nil
	}
	for lo < hi {
		m := (lo + hi) / 2
		s.event(SearchEvent{Kind: EvBisectStep, Cluster: name, Lo: lo, Hi: hi, P: m})
		em, err := f(m)
		if err != nil {
			return 0, Estimate{}, err
		}
		em1, err := f(m + 1)
		if err != nil {
			return 0, Estimate{}, err
		}
		if em.TcMs <= em1.TcMs {
			hi = m
		} else {
			lo = m + 1
		}
	}
	est, err := f(lo)
	return lo, est, err
}

// scanCluster is PartitionLinear's minimiser: it probes every count and
// keeps the smallest one that strictly improves on the incumbent; when
// none does, the cluster stays closed at count 0 with the incumbent.
func scanCluster(_ *search, d *DeltaEval, k, lo, hi int, incumbent Estimate) (int, Estimate, error) {
	bestP, best := 0, incumbent
	for p := lo; p <= hi; p++ {
		est, err := d.Probe(k, p)
		if err != nil {
			return 0, Estimate{}, err
		}
		if best.Config.Counts == nil || est.TcMs < best.TcMs {
			bestP, best = p, est.Detach()
		}
	}
	return bestP, best, nil
}

// PartitionExhaustive searches the full product space of processor counts
// (every P_i from 0 to available, not only locality-first prefixes). It is
// the oracle the heuristic is compared against in ablation A1; its cost is
// Π(N_i+1) evaluations.
func PartitionExhaustive(e *Estimator) (Result, error) {
	s := e.begin("exhaustive")
	counts := make([]int, len(s.order))
	var best Estimate
	var rec func(k int) error
	rec = func(k int) error {
		if k == len(counts) {
			total := 0
			for _, c := range counts {
				total += c
			}
			if total == 0 || total > s.numPDUs {
				return nil
			}
			est, err := e.Estimate(cost.Config{Clusters: s.cfg.Clusters, Counts: counts})
			if err != nil {
				return err
			}
			if best.Config.Counts == nil || est.TcMs < best.TcMs {
				best = est.Detach()
			}
			return nil
		}
		for p := 0; p <= s.order[k].Available; p++ {
			counts[k] = p
			if err := rec(k + 1); err != nil {
				return err
			}
		}
		counts[k] = 0
		return nil
	}
	if err := rec(0); err != nil {
		return Result{}, err
	}
	return s.finish(best)
}
