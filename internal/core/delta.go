package core

import (
	"fmt"
	"math"

	"netpart/internal/cost"
	"netpart/internal/model"
	"netpart/internal/topo"
)

// DeltaEval is the package's one implementation of Eq. 3–6: every
// estimate — Estimator.Estimate, each search probe, the Fig. 3 curve — is
// a probe of a DeltaEval bound to a cluster list. Binding memoizes what a
// probe would otherwise re-derive from unchanged inputs — per-cluster op
// times, the Eq. 3 denominator's terms at the base counts, cost-table
// parameter lookups, and pairwise segment/coercion facts — so a probe that
// varies one cluster's count recomputes only the O(K) arithmetic that
// depends on it.
//
// The denominator is accumulated left to right in cluster order with the
// probed term substituted at its position, so a probe is bit-identical to
// an Estimate of its vector, which TestDeltaProbeMatchesEstimate pins.
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
	bwLimit bool
	overlap bool // the dominant communication overlaps the dominant computation
	stagger bool // a non-overlapped 1-D phase: eval charges the staggered cycle
	numPDUs int

	cl     []deltaCluster // one per cluster of the base, in its order
	pairs  []deltaPair    // one per unordered cluster pair (pairFor)
	shares []float64      // probe output buffer (Estimate.Shares aliases it)
	probe  []int          // Probe's counts (Estimate.Config.Counts aliases it)

	// Room for cl, pairs and a search's order inside the Estimator's one
	// allocation, sized for two clusters (the paper's): more would take the
	// Estimator past 512 bytes, to a slower allocator path.
	clRoom    [2]deltaCluster
	pairRoom  [1]deltaPair
	orderRoom [5]*model.Cluster
}

// deltaCluster is what a probe reads and writes of one cluster.
type deltaCluster struct {
	c     *model.Cluster // resolved once per bind
	time  float64        // op time of the dominant class, re-read on every bind
	term  float64        // base count / time: the Eq. 3 denominator's term
	count int            // the count under evaluation
	// params are the Eq. 1 constants for the dominant topology (1-D
	// without a communication phase) and chain the cluster's own measured
	// staggers (nil if none), each resolved on first use.
	params            cost.Params
	paramsOK, chainOK bool
	chain             *cost.Chain
}

// deltaPair memoizes the cross-segment facts of one cluster pair, and the
// measured chains of the earlier cluster's ranks (in the evaluator's order)
// followed by the later's.
type deltaPair struct {
	ok, sameSeg, coerce, chainOK bool
	router, coerceC              cost.PerByte
	chain                        *cost.Chain // nil when the table has none
}

// evalMode says how an evaluation reports itself.
type evalMode uint8

const (
	probed   evalMode = iota // a Probe: counted, observed with its cluster and count
	searched                 // a search's probe: as probed, but only T_c is read, so unobserved it skips the startup estimate
	whole                    // an Estimate, or a search's counts as they stand: counted, observed unlabeled
	rebuilt                  // a configuration already counted, evaluated again for its figures
)

// BeginDelta prepares an incremental evaluator for probes against cfg.
// cfg's Clusters and Counts are aliased: the caller may mutate the counts
// between probes as its search settles clusters, calling Rebase after.
func (e *Estimator) BeginDelta(cfg cost.Config) (*DeltaEval, error) {
	d := &DeltaEval{}
	if err := d.bind(e, cfg, nil); err != nil {
		return nil, err
	}
	return d, nil
}

// bind points the evaluator at cfg, a well-formed configuration whose
// counts become the (aliased) base. order, when non-nil, is cfg's clusters
// resolved (a search's fastest-first order); otherwise the names resolve
// through the network. Each slot keeps its *model.Cluster, so no probe
// reads a name. The dominant phases, their overlap, the PDU count and the
// cluster speeds are re-read on every bind, so annotations whose dominance
// shifts between calls stay correct. The cost-table memo survives a rebind
// to the same cluster names and communication phase; otherwise it is
// cleared, reusing the buffers.
//
//netpart:hotpath
func (d *DeltaEval) bind(e *Estimator, cfg cost.Config, order []*model.Cluster) error {
	if err := checkConfig(cfg); err != nil {
		return err
	}
	comp, comm := e.Ann.DominantCompute(), e.Ann.DominantComm()
	k := len(cfg.Clusters)
	if d.e != e || d.comm != comm || !sameNames(d.base.Clusters, cfg.Clusters) {
		if err := d.reset(e, comm, k); err != nil {
			return err
		}
	}
	if cap(d.shares) < k { // a longer list, or a search handed the buffer to its Result
		d.shares = make([]float64, k)
	}
	d.base, d.comp, d.numPDUs, d.shares = cfg, comp, e.Ann.NumPDUs(), d.shares[:k]
	d.overlap = comm != nil && comm.Overlap != "" && comm.Overlap == comp.Name
	_, oneD := d.tp.(topo.OneD)
	d.stagger = oneD && !d.overlap
	for i, name := range cfg.Clusters {
		var c *model.Cluster
		if order != nil {
			c = order[i]
		} else if c = e.Net.Cluster(name); c == nil {
			return fmt.Errorf("core: unknown cluster %q", name)
		}
		d.cl[i].c, d.cl[i].time = c, c.OpTime(comp.Class)
	}
	d.Rebase()
	return nil
}

// reset clears the memos for a new cluster list of length k, growing the
// buffers only when k exceeds every list seen before.
//
//netpart:hotpath
func (d *DeltaEval) reset(e *Estimator, comm *CommunicationPhase, k int) error {
	d.e = nil // until the memo is consistent again
	if cap(d.cl) < k {
		d.cl, d.pairs = d.clRoom[:0], nil
		if k > len(d.clRoom) {
			d.cl = make([]deltaCluster, k)
		}
	}
	d.cl = d.cl[:k]
	clear(d.cl)
	clear(d.pairs)
	d.tp = nil
	if comm != nil {
		tp, err := topo.ByName(comm.Topology)
		if err != nil {
			return err
		}
		d.tp, d.bwLimit = tp, tp.BandwidthLimited()
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

// Rebase recomputes the base-count terms after the caller mutated the
// base configuration's counts.
//
//netpart:hotpath
func (d *DeltaEval) Rebase() {
	for i, c := range d.base.Counts {
		d.cl[i].term = float64(c) / d.cl[i].time
	}
}

// Probe estimates the base configuration with cluster k's count replaced
// by p; an observed candidate is labeled with that cluster and p. The
// returned Estimate aliases the evaluator's shares and probe buffers
// (valid until the next probe); Detach before retaining.
//
//netpart:hotpath
func (d *DeltaEval) Probe(k, p int) (est Estimate, err error) {
	err = d.eval(&est, k, p, probed)
	d.probe = append(d.probe[:0], d.base.Counts...)
	d.probe[k] = p
	est.Config.Counts = d.probe
	return est, err
}

// detached is est, the evaluation with count k at p, with its own copies
// of the counts and shares: what an observer may keep.
func (d *DeltaEval) detached(est Estimate, k, p int) Estimate {
	est.Config.Counts = append([]int(nil), d.base.Counts...)
	est.Config.Counts[k] = p
	est.Shares = append([]float64(nil), est.Shares...)
	return est
}

// eval is Eq. 3–6 for the base configuration with count k set to p,
// written into est.
//
//netpart:hotpath
func (d *DeltaEval) eval(est *Estimate, k, p int, mode evalMode) error {
	e := d.e
	if mode != rebuilt {
		e.evaluations++
	}
	cl := d.cl
	total := p - d.base.Counts[k]
	for i := range cl {
		cl[i].count = d.base.Counts[i]
		total += cl[i].count
	}
	cl[k].count = p
	// Field by field: measured cheaper than assigning a whole Estimate
	// through the pointer (BenchmarkEstimateDelta).
	est.Config, est.Shares, est.Charge = cost.Config{Clusters: d.base.Clusters}, nil, ""
	est.TcompMs, est.TcommMs, est.ToverlapMs, est.TcMs, est.BytesPerMsg, est.StartupMs = 0, 0, 0, 0, 0, 0
	if total <= 0 {
		return ErrNoProcessors
	}

	// Eq. 3: the denominator accumulated left to right, with the probed
	// term substituted at position k.
	denom := 0.0
	for i := range cl {
		if i == k {
			denom += float64(p) / cl[i].time
		} else {
			denom += cl[i].term
		}
	}
	shares := d.shares
	first := -1 // the first active cluster: the startup root
	for i := range shares {
		shares[i] = 0
		if cl[i].count > 0 {
			shares[i] = float64(d.numPDUs) / (cl[i].time * denom)
			if first < 0 {
				first = i
			}
		}
	}
	if d.comp.TotalOps != nil {
		// Non-linear balance: recompute shares so S_i·ops(A_i) equalizes.
		// This path allocates (nested bisection); the linear Eq. 3 form is
		// the hot one.
		cfg := d.detached(*est, k, p).Config
		var err error
		if shares, err = generalShares(e.Net, cfg, d.numPDUs, d.comp.Class, d.comp.TotalOps); err != nil {
			return err
		}
	}
	est.Shares = shares

	// Eq. 4: T_comp at the first active cluster (equal for all by load
	// balance).
	est.TcompMs = cl[first].time * d.comp.Ops(shares[first])

	if d.comm != nil {
		// b may depend on the assignment; use the largest message any task
		// sends (the synchronous cost is set by the worst processor).
		b := 0.0
		for i := range cl {
			if cl[i].count == 0 {
				continue
			}
			if v := d.comm.BytesPerMessage(shares[i]); v > b {
				b = v
			}
		}
		est.BytesPerMsg = b
		if total > 1 { // a single task exchanges no messages
			burst, x, charge, err := d.commCost(b, total)
			if err != nil {
				return err
			}
			est.TcommMs = burst
			if d.stagger {
				// A rank with its ghosts computes while the channel still
				// carries its neighbours' borders: the cycle is the larger
				// of the burst and T_comp + x (direct, keeping T_c flat).
				est.TcMs = max(burst, est.TcompMs+x)
				est.TcommMs, est.Charge = est.TcMs-est.TcompMs, charge
			}
		}
		if d.overlap {
			est.ToverlapMs = math.Min(est.TcompMs, est.TcommMs)
		}
	}
	if e.Ann.StartupBytesPerPDU > 0 && total > 1 && (mode != searched || e.Observer != nil) {
		est.StartupMs = d.startupCost(shares, first)
	}
	switch {
	case est.ToverlapMs > 0:
		// Algebraically Tcomp + Tcomm - min(Tcomp, Tcomm) = max(Tcomp,
		// Tcomm); computing the max directly keeps plateaus of the T_c
		// curve exactly flat (the subtraction form differs by an ulp,
		// which would mislead the bisection search).
		est.TcMs = math.Max(est.TcompMs, est.TcommMs)
	case est.TcMs == 0: // not charged a staggered cycle above
		est.TcMs = est.TcompMs + est.TcommMs
	}
	if e.Observer != nil && mode != rebuilt {
		cluster, at := "", 0
		if mode == probed || mode == searched {
			cluster, at = d.base.Clusters[k], p
		}
		e.observe(cluster, at, d.detached(*est, k, p), false)
	}
	return nil
}

// paramsFor resolves (and memoizes) cluster i's Eq. 1 constants for the
// dominant topology. Without a communication phase they are the 1-D
// model's, which only the startup estimate reads; with one, commCost has
// resolved every active cluster before startupCost reads the root's.
//
//netpart:hotpath
func (d *DeltaEval) paramsFor(i int) (cost.Params, error) {
	c := &d.cl[i]
	if c.paramsOK {
		return c.params, nil
	}
	topology := "1-D"
	if d.comm != nil {
		topology = d.comm.Topology
	}
	params, err := d.e.Costs.Comm(d.base.Clusters[i], topology)
	if err != nil {
		return cost.Params{}, err
	}
	c.params, c.paramsOK = params, true
	return params, nil
}

// pairFor resolves (and memoizes) the cross-segment facts of the cluster
// pair {i, j}, i ≠ j. Every fact is symmetric, so the pairs are stored as
// a lower triangle: row i holds the i pairs with the clusters before it.
//
//netpart:hotpath
func (d *DeltaEval) pairFor(i, j int) *deltaPair {
	if i < j {
		i, j = j, i
	}
	if len(d.pairs) == 0 { // taken at the first crossing: many searches never cross
		d.pairs = d.pairRoom[:]
		if cap(d.cl) > len(d.clRoom) {
			d.pairs = make([]deltaPair, cap(d.cl)*(cap(d.cl)-1)/2)
		}
	}
	pr := &d.pairs[i*(i-1)/2+j]
	if pr.ok {
		return pr
	}
	a, b := d.cl[i].c, d.cl[j].c
	*pr = deltaPair{ok: true, sameSeg: a.Segment == b.Segment}
	if !pr.sameSeg {
		pr.router = d.e.Costs.Router(a.Name, b.Name)
		pr.coerce = a.Format != b.Format
		if pr.coerce {
			pr.coerceC = d.e.Costs.Coerce(a.Name, b.Name)
		}
	}
	return pr
}

// commCost applies the Eq. 2 composition over the counts under evaluation
// (at least two tasks), honoring the RouterStation flag on every call: with it set,
// a cluster whose tasks communicate across the router is charged one
// extra contending station (Section 3.0, matching cost.Table.CommCost bit
// for bit); without it, Section 6.0's composition omits the extra station.
// That is the burst. x, a staggered phase's stagger, is the chain table's
// line for the active clusters, one or two, at the counts (and in the
// order) it measured, else 2·own:
// own is the largest Eq. 1_i(b, 2), plus the crossing penalty when the
// cluster's ranks cross; charge names which. Border detection uses
// topo.SegmentCrosses on the contiguous placement's rank ranges, so no
// placement is materialized.
//
//netpart:hotpath
func (d *DeltaEval) commCost(b float64, total int) (burst, x float64, charge string, err error) {
	lo, own, active, prev, last := 0, 0.0, 0, 0, 0
	cl := d.cl
	for i := range cl {
		cnt := cl[i].count
		if cnt == 0 {
			continue
		}
		params, err := d.paramsFor(i)
		if err != nil {
			return 0, 0, "", err
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
		c, o := params.Eval(b, p), params.Eval(b, 2)
		if crosses {
			pen := d.crossPenalty(i, b)
			c, o = c+pen, o+pen
		}
		burst, own = max(burst, c), max(own, o)
		active, prev, last = active+1, last, i
	}
	if !d.stagger { // only a staggered phase reads x: look up no chain
		return burst, 2 * own, ChargeTwoOwn, nil
	}
	if active == 1 {
		c := &cl[last]
		if !c.chainOK {
			c.chain, c.chainOK = d.e.Costs.Chain(c.c.Name, ""), true
		}
		if line, ok := c.chain.Line(c.count, 0); ok {
			return burst, line.Eval(b), ChargeStagger, nil
		}
	}
	if active == 2 {
		pr := d.pairFor(prev, last)
		if !pr.chainOK { // resolved here, prev < last: no other probe reads it
			pr.chain, pr.chainOK = d.e.Costs.Chain(cl[prev].c.Name, cl[last].c.Name), true
		}
		if line, ok := pr.chain.Line(cl[prev].count, cl[last].count); ok {
			return burst, line.Eval(b), ChargeChain, nil
		}
	}
	return burst, 2 * own, ChargeTwoOwn, nil
}

// crossPenalty is the worst router (plus coercion) cost from cluster from
// to any other active cluster on another segment.
//
//netpart:hotpath
func (d *DeltaEval) crossPenalty(from int, b float64) (worst float64) {
	cl := d.cl
	for j := range cl {
		if cl[j].count == 0 || j == from {
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

// startupCost estimates T_startup (at least two tasks): the root, the
// first active cluster, scatters each other task's PDU block in one
// message. Each transmission occupies the source channel for roughly the
// per-station increment of the fitted 1-D model (C2 + b·C4 of the root
// cluster) and pays the router penalty when the destination is on another
// segment; the transmissions serialize through the root's channel, so the
// costs sum.
//
//netpart:hotpath
func (d *DeltaEval) startupCost(shares []float64, root int) float64 {
	params, err := d.paramsFor(root)
	if err != nil {
		return 0 // no model: startup is advisory
	}
	sum := 0.0
	for i := range d.cl {
		tasks := d.cl[i].count
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
