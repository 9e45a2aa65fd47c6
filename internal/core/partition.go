package core

import (
	"math"

	"netpart/internal/cost"
	"netpart/internal/model"
)

// Result is the output of the partitioning algorithm: the chosen processor
// configuration with its cost estimate, the integer partition vector, and
// the number of Eq. 3/Eq. 6 recomputations the search performed. A Result
// owns its slices — Config.Clusters, Config.Counts, Shares and Vector —
// and nothing the estimator does later writes to them.
type Result struct {
	Estimate
	// Vector is the integer PDU assignment per task rank (contiguous
	// placement order).
	Vector Vector
	// Evaluations counts cost-estimate computations during the search, the
	// paper's O(K·log2 P) overhead measure.
	Evaluations int
}

// search is the one walk every Partition* strategy runs: the clusters in
// fastest-first order, a configuration over them (all counts zero) that
// the estimator's evaluator is bound to, the program's PDU count, and the
// best T_c the walk has settled on. A strategy moves the walk's counts,
// evaluates them through the evaluator, and ends in settle with the
// winner's counts in place.
type search struct {
	e        *Estimator
	strategy string
	order    []*model.Cluster
	cfg      cost.Config
	vec      Vector // room for the partition vector, behind cfg.Counts
	numPDUs  int
	tc       float64 // the best T_c so far
}

// begin opens a search: clusters fastest-first, the evaluation counter
// reset, the search-start event, and the evaluator bound to the walk's
// configuration. The names and counts are the Result's, with room behind
// the counts for the vector.
func (e *Estimator) begin(strategy string) (search, error) {
	order := e.Net.BySpeed(e.eval.orderRoom[:0], e.Ann.DominantCompute().Class)
	k, procs, names := len(order), 0, make([]string, len(order))
	for i, c := range order {
		names[i], procs = c.Name, procs+c.Available
	}
	s := search{e: e, strategy: strategy, order: order, numPDUs: e.Ann.NumPDUs()}
	counts := make([]int, k+min(procs, s.numPDUs))
	s.cfg, s.vec = cost.Config{Clusters: names, Counts: counts[:k:k]}, counts[k:k]
	e.ResetEvaluations()
	s.event(SearchEvent{Kind: EvSearchStart})
	return s, e.eval.bind(e, s.cfg, order)
}

// event forwards one control-flow step, tagged with the strategy.
func (s *search) event(ev SearchEvent) {
	ev.Strategy = s.strategy
	s.e.searchEvent(ev)
}

// evaluate is T_c at the walk's counts as they stand: counted and observed
// unlabeled, as an Estimate of them is, and bit-identical to one.
func (s *search) evaluate() (float64, error) {
	d := &s.e.eval
	d.Rebase()
	var est Estimate
	err := d.eval(&est, 0, s.cfg.Counts[0], whole)
	return est.TcMs, err
}

// settle commits to the walk's counts, the winner. It evaluates them once
// more, uncounted, for the Result, which keeps the evaluator's shares
// buffer; the partition vector is the largest-remainder rounding of the
// Eq. 3 shares (or DecomposeGeneral's balance for a non-linear dominant
// phase); then the winner event. A search that found no configuration has
// no processors.
func (s *search) settle() (Result, error) {
	if s.cfg.Total() == 0 {
		return Result{}, ErrNoProcessors
	}
	d := &s.e.eval
	d.Rebase()
	var best Estimate
	if err := d.eval(&best, 0, s.cfg.Counts[0], rebuilt); err != nil {
		return Result{}, err
	}
	best.Config, d.shares = s.cfg, nil
	vec, err := roundLargestRemainder(s.vec, best.Shares, best.Config.Counts, s.numPDUs)
	if comp := s.e.Ann.DominantCompute(); comp.TotalOps != nil {
		vec, err = DecomposeGeneral(s.e.Net, best.Config, s.numPDUs, comp.Class, comp.TotalOps)
	}
	if err != nil {
		return Result{}, err
	}
	n := s.e.Evaluations()
	s.event(SearchEvent{Kind: EvWinner, Config: best.Config, P: best.Config.Total(), TcMs: best.TcMs, Evaluations: n})
	return Result{Estimate: best, Vector: vec, Evaluations: n}, nil
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
// fixed at the evaluator's base counts, given the search's best T_c so far
// (none while every count is zero). It returns the count and its T_c. (By
// value: a pointer through a function value would move s to the heap.)
type minimiser func(s search, d *DeltaEval, k, lo, hi int) (int, float64, error)

// localityFirst is the Section 5.0 walk the bisect and scan searches
// share: clusters fastest-first, each cluster's count chosen by minimise
// over the counts the PDU budget allows, and a slower cluster opened only
// when the faster one is used in full. A cluster with nothing available
// is skipped. Every probe varies a single count of the walk's
// configuration; Rebase folds each settled cluster into the evaluator's
// terms. Probes keep only T_c: settle evaluates the winner once more.
func localityFirst(e *Estimator, strategy string, minimise minimiser) (Result, error) {
	s, err := e.begin(strategy)
	if err != nil {
		return Result{}, err
	}
	d := &e.eval
	for k, c := range s.order {
		if c.Available == 0 {
			continue
		}
		total := s.cfg.Total()
		hi := min(c.Available, s.numPDUs-total)
		lo := 0
		if total == 0 {
			lo = 1 // at least one processor overall
		}
		if hi < lo {
			break
		}
		s.event(SearchEvent{Kind: EvClusterOpen, Cluster: c.Name, Lo: lo, Hi: hi})
		d.Rebase()
		p, tc, err := minimise(s, d, k, lo, hi)
		if err != nil {
			return Result{}, err
		}
		s.cfg.Counts[k], s.tc = p, tc
		if p < c.Available {
			// The cluster was not exhausted: by the locality-first
			// heuristic, opening a slower cluster cannot help.
			s.event(SearchEvent{Kind: EvClusterSettle, Cluster: c.Name, P: p, TcMs: tc})
			break
		}
		s.event(SearchEvent{Kind: EvClusterExhaust, Cluster: c.Name, P: p, TcMs: tc})
	}
	return s.settle()
}

// bisectCluster is Partition's minimiser. It assumes T_c(p) is unimodal
// (Fig. 3: decreasing, then increasing) and bisects on the discrete slope
// sign — T_c(m) vs T_c(m+1) — so each step halves the range with at most
// two new evaluations, the paper's log2 P behavior. A step keeps the end
// it probed and drops the rest, so only the current ends can recur and
// the memo is T_c at lo and at hi. A memo hit is re-emitted as a cached
// candidate (evaluated again, uncounted, for its figures) so the decision
// record shows every probe the search consulted.
//
// The curve is unimodal but for two steps, checked directly. Opening a
// slower cluster adds its crossing penalty at p = 1, so the cluster stays
// closed unless its minimum beats the search's best so far (no probe). On
// a staggered phase two ranks leapfrog, off the line from three on, so
// bisection covers totals from 3 and totals 1 and 2 are probed.
func bisectCluster(s search, d *DeltaEval, k, lo, hi int) (int, float64, error) {
	name := s.cfg.Clusters[k]
	base, top := s.cfg.Total(), hi
	if d.stagger {
		lo = max(lo, min(hi, 3-base))
	}
	tLo, tHi := math.NaN(), math.NaN() // NaN until a step probes that end
	f := func(p int) (float64, error) {
		tc := math.NaN()
		switch {
		case p == lo && !math.IsNaN(tLo):
			tc = tLo
		case p == hi:
			tc = tHi
		}
		if !math.IsNaN(tc) {
			if s.e.Observer != nil {
				var est Estimate
				if err := d.eval(&est, k, p, rebuilt); err != nil {
					return 0, err
				}
				s.e.observe(name, p, d.detached(est, k, p), true)
			}
			return tc, nil
		}
		var est Estimate
		if err := d.eval(&est, k, p, searched); err != nil {
			return 0, err
		}
		return est.TcMs, nil
	}
	for lo < hi {
		m := (lo + hi) / 2
		s.event(SearchEvent{Kind: EvBisectStep, Cluster: name, Lo: lo, Hi: hi, P: m})
		tm, err := f(m)
		if err != nil {
			return 0, 0, err
		}
		tm1, err := f(m + 1)
		if err != nil {
			return 0, 0, err
		}
		if tm <= tm1 {
			hi, tHi = m, tm
		} else {
			lo, tLo = m+1, tm1
		}
	}
	p := lo
	best, err := f(p)
	for t := 1; d.stagger && t <= 2 && err == nil; t++ {
		if q := t - base; q >= 1 && q <= top && q != p {
			var tq float64
			if tq, err = f(q); tq < best || tq == best && q < p {
				p, best = q, tq
			}
		}
	}
	if err != nil {
		return 0, 0, err
	}
	if base > 0 && best >= s.tc {
		return 0, s.tc, nil // keep the cluster closed
	}
	return p, best, nil
}

// scanCluster is PartitionLinear's minimiser: it probes every count and
// keeps the smallest one that strictly improves on the best so far; when
// none does, the cluster stays closed at count 0.
func scanCluster(s search, d *DeltaEval, k, lo, hi int) (int, float64, error) {
	bestP, best, have := 0, s.tc, s.cfg.Total() > 0
	for p := lo; p <= hi; p++ {
		var est Estimate
		if err := d.eval(&est, k, p, searched); err != nil {
			return 0, 0, err
		}
		if !have || est.TcMs < best {
			bestP, best, have = p, est.TcMs, true
		}
	}
	return bestP, best, nil
}

// PartitionExhaustive searches the full product space of processor counts
// (every P_i from 0 to available, not only locality-first prefixes). It is
// the oracle the heuristic is compared against in ablation A1; its cost is
// Π(N_i+1) evaluations. The walk's counts turn like an odometer, the last
// cluster's fastest, and the first strictly best configuration wins.
func PartitionExhaustive(e *Estimator) (Result, error) {
	s, err := e.begin("exhaustive")
	if err != nil {
		return Result{}, err
	}
	counts := s.cfg.Counts
	best, found := make([]int, len(counts)), false
	for k := 0; k >= 0; {
		if total := s.cfg.Total(); total > 0 && total <= s.numPDUs {
			tc, err := s.evaluate()
			if err != nil {
				return Result{}, err
			}
			if !found || tc < s.tc {
				copy(best, counts)
				s.tc, found = tc, true
			}
		}
		for k = len(counts) - 1; k >= 0 && counts[k] == s.order[k].Available; k-- {
			counts[k] = 0
		}
		if k >= 0 {
			counts[k]++
		}
	}
	copy(counts, best)
	return s.settle()
}
