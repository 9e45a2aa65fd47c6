package main

import (
	"math"
	"time"

	"netpart/internal/core"
	"netpart/internal/trace"
)

// decideStage is the decision half of every workload: one pass takes each
// instance through core.NewEstimator, core.Partition and the vector check,
// exactly what a caller pays for one partitioning decision.
type decideStage struct {
	st        *state
	reps      int       // times the instance list is repeated per pass
	tc        []float64 // first pass's T_c per instance: later passes must repeat it
	last      []core.Result
	attempted int
	failed    int
	passes    []float64 // wall seconds per pass
}

func newDecideStage(st *state) *decideStage {
	n := len(st.in.decide)
	reps := (st.sc.minDecisions + n - 1) / n
	return &decideStage{st: st, reps: reps, last: make([]core.Result, n)}
}

func (d *decideStage) perPass() int { return d.reps * len(d.st.in.decide) }

// checkDecision verifies one decision: a finite positive estimate and an
// Eq. 3 vector with one entry per chosen processor that sums to the PDUs.
func checkDecision(res core.Result, pdus int) bool {
	if !(res.TcMs > 0) || math.IsInf(res.TcMs, 0) {
		return false
	}
	if len(res.Vector) != res.Config.Total() || res.Vector.Sum() != pdus {
		return false
	}
	for _, a := range res.Vector {
		if a < 0 {
			return false
		}
	}
	return true
}

// pass runs one pass; tr may be nil.
func (d *decideStage) pass(tr *tracer) {
	st := d.st
	bad := 0
	start := time.Now()
	for r := 0; r < d.reps; r++ {
		for i := range st.in.decide {
			inst := &st.in.decide[i]
			op := int32(d.attempted + r*len(st.in.decide) + i)
			whole := tr.begin(spDecision, op, -1)
			s := tr.begin(spNewEstimator, op, whole)
			est, err := core.NewEstimator(st.net(inst.net), st.tables[inst.net], inst.ann)
			tr.end(s)
			if err != nil {
				bad++
				tr.end(whole)
				continue
			}
			s = tr.begin(spPartition, op, whole)
			res, err := core.Partition(est)
			tr.end(s)
			s = tr.begin(spCheck, op, whole)
			ok := err == nil && checkDecision(res, inst.pdus)
			tr.end(s)
			tr.end(whole)
			if !ok {
				bad++
				continue
			}
			d.last[i] = res
		}
	}
	elapsed := time.Since(start)

	// Untimed: a deterministic search must repeat its answer.
	if d.tc == nil {
		d.tc = make([]float64, len(d.last))
		for i, res := range d.last {
			d.tc[i] = res.TcMs
		}
	} else {
		for i, res := range d.last {
			if res.TcMs != d.tc[i] {
				bad++
			}
		}
	}
	d.attempted += d.perPass()
	d.failed += bad
	d.passes = append(d.passes, elapsed.Seconds())
}

// run repeats passes until the budget is spent (at least three) or tr,
// which may be nil, has no room for another. It returns the span index at
// which each pass began, and the end.
func (d *decideStage) run(budget time.Duration, tr *tracer) (marks []int) {
	deadline := time.Now().Add(budget)
	marks = []int{0}
	for len(d.passes) < 3 || time.Now().Before(deadline) {
		if tr != nil && cap(tr.spans)-len(tr.spans) < 4*d.perPass() {
			break
		}
		d.pass(tr)
		if tr != nil {
			marks = append(marks, len(tr.spans))
		}
	}
	return marks
}

// decisionUs is the end-to-end metric: the fastest pass, per decision.
func (d *decideStage) decisionUs() summary {
	return summarize(d.passes).scaled(1e6 / float64(d.perPass()))
}

// evalsPerDecision is the mean Estimator.Evaluations of the last pass —
// the paper's O(K·log2 P) count, exact.
func (d *decideStage) evalsPerDecision() float64 {
	sum := 0
	for _, res := range d.last {
		sum += res.Evaluations
	}
	return float64(sum) / float64(len(d.last))
}

// regretPctMax is how far the heuristic's T_c is above the exhaustive
// oracle's, maximised over the instances (0 = the heuristic found the
// optimum everywhere). Computed once, untimed.
func (d *decideStage) regretPctMax() (float64, error) {
	worst := 0.0
	for i := range d.st.in.decide {
		inst := &d.st.in.decide[i]
		est, err := core.NewEstimator(d.st.net(inst.net), d.st.tables[inst.net], inst.ann)
		if err != nil {
			return 0, err
		}
		opt, err := core.PartitionExhaustive(est)
		if err != nil {
			return 0, err
		}
		if r := trace.DeviationPct(d.last[i].TcMs, opt.TcMs); r > worst {
			worst = r
		}
	}
	return worst, nil
}
