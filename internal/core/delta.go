package core

import (
	"fmt"
	"math"

	"netpart/internal/cost"
	"netpart/internal/topo"
)

// DeltaEval is the package's one implementation of Eq. 3–6: every
// estimate — Estimator.Estimate, each search probe, the Fig. 3 curve — is
// a probe of a DeltaEval bound to a cluster list. Binding memoizes what a
// probe would otherwise re-derive from unchanged inputs — per-cluster op
// times, the Eq. 3 denominator's partial sums at the base counts,
// cost-table parameter lookups, and pairwise segment/coercion facts — so a
// probe that varies one cluster's count recomputes only the O(K)
// arithmetic that depends on it.
//
// The denominator is accumulated left to right in cluster order with the
// probed term substituted at its position (prefix through cluster k, the
// probed division, then the remaining terms), so a probe is bit-identical
// to an Estimate of its vector, which TestDeltaProbeMatchesEstimate pins.
//
// A DeltaEval aliases its base Config (Counts is not copied): after
// mutating the base counts, call Rebase. It is not safe for concurrent
// use, and a returned Estimate's Shares and Config.Counts alias reusable
// buffers — Detach before retaining. With an Observer attached, each probe
// emits its Candidate; a non-linear dominant phase (TotalOps) balances
// through generalShares, which allocates.
type DeltaEval struct {
	e    *Estimator
	base cost.Config

	comp    *ComputationPhase
	comm    *CommunicationPhase
	tp      topo.Topology
	tpName  string
	bwLimit bool
	//netpart:unit pdus
	numPDUs   int
	baseTotal int

	//netpart:unit ms/ops
	times []float64 // per-cluster op times, re-read on every bind
	terms []float64 // counts[i]/times[i] at the base counts
	// prefix[i] is the Eq. 3 denominator accumulated through cluster i-1.
	prefix []float64
	//netpart:unit pdus
	shares []float64 // probe output buffer (Estimate.Shares aliases it)
	probe  []int     // probe counts buffer (Estimate.Config.Counts aliases it)

	commP   []cost.Params // per-cluster comm params for the dominant topology
	commOK  []bool
	startP  []cost.Params // per-root startup params (with the 1-D fallback)
	startSt []int8        // 0 unresolved, 1 resolved, -1 no model
	pairs   []deltaPair   // pairwise router/coercion facts, row-major K×K
	pairOK  []bool
}

// deltaPair memoizes the cross-segment facts of one ordered cluster pair.
type deltaPair struct {
	sameSeg bool
	coerce  bool
	router  cost.PerByte
	coerceC cost.PerByte
}

// BeginDelta prepares an incremental evaluator for probes against cfg.
// cfg's Clusters and Counts are aliased: the caller may mutate the counts
// between probes as its search settles clusters, calling Rebase after.
func (e *Estimator) BeginDelta(cfg cost.Config) (*DeltaEval, error) {
	d := &DeltaEval{}
	if err := d.bind(e, cfg); err != nil {
		return nil, err
	}
	return d, nil
}

// bind points the evaluator at cfg, whose counts become the (aliased)
// base. The dominant phases, the PDU count and the cluster speeds are
// re-read on every bind, so annotations whose dominance shifts between
// calls stay correct. The cost-table memo survives a rebind to the same
// cluster names and communication phase; otherwise it is cleared, reusing
// the buffers.
//
//netpart:hotpath
func (d *DeltaEval) bind(e *Estimator, cfg cost.Config) error {
	comp, comm := e.Ann.DominantCompute(), e.Ann.DominantComm()
	k := len(cfg.Clusters)
	if d.e != e || d.comm != comm || len(d.times) < k || !sameNames(d.base.Clusters, cfg.Clusters) {
		if err := d.reset(e, comm, k); err != nil {
			return err
		}
	}
	d.base, d.comp, d.numPDUs = cfg, comp, e.Ann.NumPDUs()
	for i, name := range cfg.Clusters {
		c := e.cluster(name)
		if c == nil {
			return fmt.Errorf("core: unknown cluster %q", name)
		}
		d.times[i] = c.OpTime(comp.Class)
	}
	d.Rebase()
	return nil
}

// reset clears the cost-table memo for a new cluster list of length k,
// growing the buffers (a few shared backing arrays) only when k exceeds
// every list seen before.
//
//netpart:hotpath
func (d *DeltaEval) reset(e *Estimator, comm *CommunicationPhase, k int) error {
	d.e = nil // until the memo is consistent again
	if len(d.times) < k {
		f := make([]float64, 4*k)
		d.times, d.terms, d.prefix, d.shares = f[:k], f[k:2*k], f[2*k:3*k], f[3*k:]
		params := make([]cost.Params, 2*k)
		d.commP, d.startP = params[:k], params[k:]
		ok := make([]bool, k+k*k)
		d.commOK, d.pairOK = ok[:k], ok[k:]
		d.probe, d.startSt, d.pairs = make([]int, k), make([]int8, k), make([]deltaPair, k*k)
	}
	clear(d.commOK)
	clear(d.startSt)
	clear(d.pairOK)
	d.tp = nil
	if comm != nil {
		tp, err := topo.ByName(comm.Topology)
		if err != nil {
			return err
		}
		d.tp, d.tpName, d.bwLimit = tp, tp.Name(), tp.BandwidthLimited()
	}
	d.e, d.comm = e, comm
	return nil
}

// sameNames reports whether two cluster lists name the same clusters in
// the same order.
//
//netpart:hotpath
func sameNames(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Rebase recomputes the base-count partial sums after the caller mutated
// the base configuration's counts.
//
//netpart:hotpath
func (d *DeltaEval) Rebase() {
	acc := 0.0
	total := 0
	for i := range d.base.Clusters {
		d.prefix[i] = acc
		d.terms[i] = float64(d.base.Counts[i]) / d.times[i]
		acc += d.terms[i]
		total += d.base.Counts[i]
	}
	d.baseTotal = total
}

// Probe estimates the base configuration with cluster k's count replaced
// by p; an observed candidate is labeled with that cluster and p. The
// returned Estimate aliases the evaluator's shares and probe buffers
// (valid until the next probe); Detach before retaining.
//
//netpart:hotpath
func (d *DeltaEval) Probe(k, p int) (Estimate, error) { return d.eval(k, p, true) }

// eval is Eq. 3–6 for the base configuration with count k set to p.
//
//netpart:hotpath
func (d *DeltaEval) eval(k, p int, labeled bool) (Estimate, error) {
	e := d.e
	e.evaluations++
	n := len(d.base.Clusters)
	probe := d.probe[:n]
	copy(probe, d.base.Counts)
	probe[k] = p
	est := Estimate{Config: cost.Config{Clusters: d.base.Clusters, Counts: probe}}
	total := d.baseTotal - d.base.Counts[k] + p
	if total <= 0 {
		return est, ErrNoProcessors
	}

	// Eq. 3: replay the denominator accumulation with the probed term
	// substituted at position k.
	denom := d.prefix[k]
	denom += float64(p) / d.times[k]
	for j := k + 1; j < n; j++ {
		denom += d.terms[j]
	}
	shares := d.shares[:n]
	first := -1 // the first active cluster: the startup root
	for i := range shares {
		shares[i] = 0
		if probe[i] > 0 {
			shares[i] = float64(d.numPDUs) / (d.times[i] * denom)
			if first < 0 {
				first = i
			}
		}
	}
	if d.comp.TotalOps != nil {
		// Non-linear balance: recompute shares so S_i·ops(A_i) equalizes.
		// This path allocates (nested bisection); the linear Eq. 3 form is
		// the hot one.
		var err error
		if shares, err = generalShares(e.Net, est.Config, d.numPDUs, d.comp.Class, d.comp.TotalOps); err != nil {
			return est, err
		}
	}
	est.Shares = shares

	// Eq. 4: T_comp at the first active cluster (equal for all by load
	// balance).
	est.TcompMs = d.times[first] * d.comp.Ops(shares[first])

	if d.comm != nil {
		// b may depend on the assignment; use the largest message any task
		// sends (the synchronous cost is set by the worst processor).
		b := 0.0
		for i := range probe {
			if probe[i] == 0 {
				continue
			}
			if v := d.comm.BytesPerMessage(shares[i]); v > b {
				b = v
			}
		}
		est.BytesPerMsg = b
		if total > 1 { // a single task exchanges no messages
			tcomm, err := d.commCost(b, probe, total)
			if err != nil {
				return est, err
			}
			est.TcommMs = tcomm
		}
		if d.comm.Overlap != "" && d.comm.Overlap == d.comp.Name {
			est.ToverlapMs = math.Min(est.TcompMs, est.TcommMs)
		}
	}
	if e.Ann.StartupBytesPerPDU > 0 && total > 1 {
		est.StartupMs = d.startupCost(probe, shares, first)
	}
	if est.ToverlapMs > 0 {
		// Algebraically Tcomp + Tcomm - min(Tcomp, Tcomm) = max(Tcomp,
		// Tcomm); computing the max directly keeps plateaus of the T_c
		// curve exactly flat (the subtraction form differs by an ulp,
		// which would mislead the bisection search).
		est.TcMs = math.Max(est.TcompMs, est.TcommMs)
	} else {
		est.TcMs = est.TcompMs + est.TcommMs
	}
	if e.Observer != nil {
		cluster, at := "", 0
		if labeled {
			cluster, at = d.base.Clusters[k], p
		}
		e.observe(cluster, at, est.Detach(), false)
	}
	return est, nil
}

// commParamsFor resolves (and memoizes) cluster i's communication params
// for the dominant topology.
//
//netpart:hotpath
func (d *DeltaEval) commParamsFor(i int) (cost.Params, error) {
	if d.commOK[i] {
		return d.commP[i], nil
	}
	params, err := d.e.Costs.Comm(d.base.Clusters[i], d.tpName)
	if err != nil {
		return cost.Params{}, err
	}
	d.commP[i] = params
	d.commOK[i] = true
	return params, nil
}

// pairFor resolves (and memoizes) the cross-segment facts of the ordered
// cluster pair (i, j).
//
//netpart:hotpath
func (d *DeltaEval) pairFor(i, j int) *deltaPair {
	idx := i*len(d.base.Clusters) + j
	pr := &d.pairs[idx]
	if d.pairOK[idx] {
		return pr
	}
	from, to := d.base.Clusters[i], d.base.Clusters[j]
	*pr = deltaPair{sameSeg: d.e.Net.SameSegment(from, to)}
	if !pr.sameSeg {
		pr.router = d.e.Costs.Router(from, to)
		pr.coerce = d.e.Net.NeedsCoercion(from, to)
		if pr.coerce {
			pr.coerceC = d.e.Costs.Coerce(from, to)
		}
	}
	d.pairOK[idx] = true
	return pr
}

// commCost applies the Eq. 2 composition over the probe vector (at least
// two tasks), honoring the RouterStation flag on every call: with it set,
// a cluster whose tasks communicate across the router is charged one
// extra contending station (Section 3.0, matching cost.Table.CommCost bit
// for bit); without it, Section 6.0's composition omits the extra station.
// Border detection uses topo.SegmentCrosses on the contiguous placement's
// rank ranges, so no placement is materialized.
//
//netpart:hotpath
//netpart:unit b bytes
//netpart:unit return ms
func (d *DeltaEval) commCost(b float64, probe []int, total int) (float64, error) {
	worst := 0.0
	lo := 0
	for i, cnt := range probe {
		if cnt == 0 {
			continue
		}
		params, err := d.commParamsFor(i)
		if err != nil {
			return 0, err
		}
		hi := lo + cnt
		crosses := topo.SegmentCrosses(d.tp, lo, hi, total)
		lo = hi
		p := cnt
		if d.bwLimit {
			// Broadcast-like: offered load scales with the total number of
			// participants regardless of segment locality.
			p = total
		}
		if crosses && d.e.RouterStation {
			p++ // the router is one more station on this segment
		}
		c := params.Eval(b, p)
		if crosses {
			c += d.crossPenalty(probe, i, b)
		}
		if c > worst {
			worst = c
		}
	}
	return worst, nil
}

// crossPenalty is the worst router (plus coercion) cost from cluster from
// to any other active cluster on another segment.
//
//netpart:hotpath
//netpart:unit b bytes
//netpart:unit return ms
func (d *DeltaEval) crossPenalty(probe []int, from int, b float64) float64 {
	worst := 0.0
	for j, cnt := range probe {
		if cnt == 0 || j == from {
			continue
		}
		pr := d.pairFor(from, j)
		if pr.sameSeg {
			continue
		}
		p := pr.router.Eval(b)
		if pr.coerce {
			p += pr.coerceC.Eval(b)
		}
		if p > worst {
			worst = p
		}
	}
	return worst
}

// startupParamsFor resolves (and memoizes) the startup cost params when
// cluster root scatters: the dominant topology's model, else any 1-D
// model; ok=false means no model exists and startup reports zero
// (startup is advisory).
//
//netpart:hotpath
func (d *DeltaEval) startupParamsFor(root int) (cost.Params, bool) {
	if d.startSt[root] != 0 {
		return d.startP[root], d.startSt[root] > 0
	}
	topology := "1-D"
	if d.comm != nil {
		topology = d.comm.Topology
	}
	params, err := d.e.Costs.Comm(d.base.Clusters[root], topology)
	if err != nil {
		params, err = d.e.Costs.Comm(d.base.Clusters[root], "1-D")
		if err != nil {
			d.startSt[root] = -1
			return cost.Params{}, false
		}
	}
	d.startP[root] = params
	d.startSt[root] = 1
	return params, true
}

// startupCost estimates T_startup (at least two tasks): the root, the
// first active cluster, scatters each other task's PDU block in one
// message. Each transmission occupies the source channel for roughly the
// per-station increment of the fitted 1-D model (C2 + b·C4 of the root
// cluster) and pays the router penalty when the destination is on another
// segment; the transmissions serialize through the root's channel, so the
// costs sum.
//
//netpart:hotpath
//netpart:unit shares pdus
//netpart:unit return ms
func (d *DeltaEval) startupCost(probe []int, shares []float64, root int) float64 {
	params, ok := d.startupParamsFor(root)
	if !ok {
		return 0
	}
	sum := 0.0
	for i, cnt := range probe {
		tasks := cnt
		if i == root {
			tasks-- // the root keeps its own block
		}
		if tasks <= 0 {
			continue
		}
		b := shares[i] * d.e.Ann.StartupBytesPerPDU
		// The fitted per-station increment (C2 + b·C4) covers one cycle's
		// messages per station — two for the 1-D pattern the constants are
		// fitted on — so one scatter message costs half of it.
		per := (params.C2 + b*params.C4) / 2
		if i != root {
			pr := d.pairFor(root, i)
			if !pr.sameSeg {
				per += pr.router.Eval(b)
				if pr.coerce {
					per += pr.coerceC.Eval(b)
				}
			}
		}
		sum += float64(tasks) * per
	}
	return sum
}
