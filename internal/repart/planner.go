// Package repart is the continuous-repartitioning engine: the one place
// that decides when a running computation's partition vector should change
// and moves the actual rows afterwards. The paper partitions once, up
// front (§7 lists dynamic recomputation as future work); this package
// makes partitioning continuous in the restreaming style — instead of
// re-running the full configuration search, the Planner starts from the
// current vector and streams rows across block boundaries while the move
// pays for itself, charging the explicit migration cost T_mig
// (cost.Migration) amortized over the expected cycles until the next
// repartition. The Migrator owns the rank-0-decides/broadcast row-
// migration protocol that the sim adaptive, live adaptive, and
// fault-tolerant runtimes previously each carried a private copy of.
//
// The decision pipeline is trigger → plan → migrate:
//
//   - a Trigger (fixed cadence, or the drift monitor's edge-triggered
//     threshold events) says a repartition is worth considering;
//   - the Planner turns measured per-task window times and the current
//     vector into a Plan, delta-evaluating candidate row moves against the
//     measured per-row rates and T_mig rather than re-running the
//     estimator;
//   - the Migrator (or the FT runtime's pump-driven equivalent) moves
//     exactly the set-difference rows, after rank 0 broadcasts the
//     (old, new) pair so every rank derives identical spans.
package repart

import (
	"fmt"
	"math"
	"strings"

	"netpart/internal/core"
	"netpart/internal/cost"
)

// DefaultHorizonCycles is the horizon a zero PlannerConfig.HorizonCycles
// takes.
const DefaultHorizonCycles = 32

// The search's fixed bounds: at most maxPasses restreaming sweeps over the
// boundaries, and a per-rank row floor of minRows (ranks at or below it
// donate nothing).
const (
	maxPasses = 8
	minRows   = 1
)

// tieTol is the relative difference under which two ranks' loads tie.
const tieTol = 1e-9

// PlannerConfig parameterizes the incremental search. The zero value is
// usable: no migration cost (pure load balancing) and the default horizon.
type PlannerConfig struct {
	// Mig prices a candidate's row movement (T_mig). The zero Migration
	// costs nothing and reduces the objective to the bottleneck load.
	Mig cost.Migration
	// HorizonCycles amortizes T_mig: a move is worth its cost only if the
	// per-cycle gain times the horizon covers it. Zero takes
	// DefaultHorizonCycles.
	HorizonCycles int
}

func (c PlannerConfig) horizon() float64 {
	if c.HorizonCycles <= 0 {
		return DefaultHorizonCycles
	}
	return float64(c.HorizonCycles)
}

// Plan is one repartitioning decision. Old and New are equal (Changed
// false) when the planner elected to keep the current vector; the
// prediction fields are populated only where the plan was computed (rank
// 0) — ranks that learn the plan from the broadcast carry the vectors
// alone.
type Plan struct {
	// Cycle is the iteration the decision was taken at.
	Cycle int
	// Reason names the trigger: "interval", "drift", or "failure".
	Reason string
	// Old and New are the partition vectors before and after.
	Old, New core.Vector
	// MovedRows counts rows whose owner changes (the T_mig argument).
	MovedRows int
	// OldMaxMs and NewMaxMs are the measured and predicted bottleneck
	// window times (max over ranks of per-row rate × rows).
	OldMaxMs, NewMaxMs float64
	// MigMs is T_mig for MovedRows.
	MigMs float64
	// Evaluations counts objective evaluations the search spent.
	Evaluations int
	// PlanMs is the wall-clock planning latency. Excluded from String so
	// plan sequences are byte-comparable across runs.
	PlanMs float64
}

// Changed reports whether the plan actually moves rows.
func (p Plan) Changed() bool {
	if len(p.Old) != len(p.New) {
		return true
	}
	for i := range p.Old {
		if p.Old[i] != p.New[i] {
			return true
		}
	}
	return false
}

// String renders the decision deterministically (no wall-clock fields):
// the golden determinism tests compare these byte-for-byte.
func (p Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cycle=%d reason=%s old=%v new=%v moved=%d", p.Cycle, p.Reason, p.Old, p.New, p.MovedRows)
	if p.Evaluations > 0 {
		fmt.Fprintf(&b, " window=%.6g->%.6g ms mig=%.6g ms evals=%d", p.OldMaxMs, p.NewMaxMs, p.MigMs, p.Evaluations)
	}
	return b.String()
}

// Planner runs the incremental restreaming search. It is a pure function
// of its inputs (safe for concurrent use; no clocks, no randomness):
// given the current vector and each rank's measured window time, it
// minimizes
//
//	J(v) = max_r rate_r · v_r  +  T_mig(moved(current → v)) / horizon
//
// where rate_r is rank r's measured per-row time. Candidate moves shift
// rows across adjacent block boundaries (the only moves a contiguous 1-D
// decomposition admits); each candidate is delta-evaluated — only the two
// touched ranks' loads and the prefix overlap change — never re-estimated
// from the cost model. Doubling step sizes per boundary give the search
// its O(passes · P · log N) evaluation bound.
type Planner struct {
	cfg PlannerConfig
}

// NewPlanner returns a planner with cfg's zero fields defaulted.
func NewPlanner(cfg PlannerConfig) *Planner {
	return &Planner{cfg: cfg}
}

// keep returns the no-change plan for cur.
func keep(cycle int, reason string, cur core.Vector) Plan {
	c := append(core.Vector(nil), cur...)
	return Plan{Cycle: cycle, Reason: reason, Old: c, New: append(core.Vector(nil), c...)}
}

// Plan decides a new vector from the current one and the measured window
// times. Degenerate inputs — length mismatch, a rank at/below the row
// floor, a non-positive or non-finite measurement (sub-resolution wall
// clocks) — keep the current vector rather than guess.
func (p *Planner) Plan(cycle int, reason string, cur core.Vector, measuredMs []float64) Plan {
	plan := keep(cycle, reason, cur)
	ranks := len(cur)
	if p == nil || ranks < 2 || len(measuredMs) != ranks {
		return plan
	}
	for i := 0; i < ranks; i++ {
		if cur[i] < minRows || measuredMs[i] <= 0 ||
			math.IsNaN(measuredMs[i]) || math.IsInf(measuredMs[i], 0) {
			return plan
		}
	}
	rate := make([]float64, ranks) // measured ms per row
	for i := range rate {
		rate[i] = measuredMs[i] / float64(cur[i])
	}
	v := append(core.Vector(nil), plan.New...)
	// Incremental objective state: both vectors' prefix sums plus the
	// running kept-row count, so MovedRows(cur, v) = total - kept without
	// materializing Owners pairs. A boundary-b shift only changes vPre[b+1],
	// hence only ranks b and b+1's loads and overlap terms — each candidate
	// is O(1) arithmetic on top of the per-boundary maxOther scan.
	curPre := make([]int, ranks+1)
	vPre := make([]int, ranks+1)
	for i := 0; i < ranks; i++ {
		curPre[i+1] = curPre[i] + cur[i]
		vPre[i+1] = vPre[i] + v[i]
	}
	total := curPre[ranks]
	kept := 0
	for r := 0; r < ranks; r++ {
		kept += overlapIn(curPre, r, vPre[r], vPre[r+1])
	}
	evals := 1
	best := maxLoad(rate, v) + p.cfg.Mig.Cost(total-kept)/p.cfg.horizon()
	// A plateau move can raise J (see tied below), so the search remembers
	// the lowest J it has reached and returns that vector.
	lowest, lowestV := best, append(core.Vector(nil), v...)
	for pass := 0; pass < maxPasses; pass++ {
		improved := false
		for b := 0; b < ranks-1; b++ {
			// Best single shift across this boundary: either direction,
			// doubling step sizes, stopping a direction once the objective
			// turns upward (the load curve in k is convex).
			maxOther := 0.0
			for i := range v {
				if i == b || i == b+1 {
					continue
				}
				if l := rate[i] * float64(v[i]); l > maxOther {
					maxOther = l
				}
			}
			keptOut := kept - overlapIn(curPre, b, vPre[b], vPre[b+1]) -
				overlapIn(curPre, b+1, vPre[b+1], vPre[b+2])
			// A candidate is scored by (J, local): local is the larger of
			// the two touched ranks' loads. At equal J the lower local wins,
			// so a plateau that two ranks share at the maximum still moves.
			bestK, bestDonor, bestJ := 0, 0, best
			curLocal := max(rate[b]*float64(v[b]), rate[b+1]*float64(v[b+1]))
			bestLocal := curLocal
			// With migration priced, a shift that lowers one of two ranks
			// tied at the maximum leaves the maximum where it is and adds
			// T_mig, so J rises; yet it is the only way down. When this
			// boundary touches a rank at the maximum and another rank
			// outside it is there too, the shift with the lowest local is
			// kept as a plateau move, taken if nothing here lowers J. (With
			// free migration that shift ties J and wins outright.) Measured
			// window times are sums whose rounding differs rank to rank, so
			// a tie is equality to tieTol, relative.
			tied := math.Abs(curLocal-maxOther) <= tieTol*maxOther
			plK, plDonor, plJ, plLocal := 0, 0, 0.0, curLocal
			for _, donor := range [2]int{b, b + 1} {
				prevJ, prevLocal := math.Inf(1), math.Inf(1)
				for k := 1; k <= v[donor]-minRows; k *= 2 {
					evals++
					var vb, vb1, mid int
					if donor == b {
						vb, vb1, mid = v[b]-k, v[b+1]+k, vPre[b+1]-k
					} else {
						vb, vb1, mid = v[b]+k, v[b+1]-k, vPre[b+1]+k
					}
					local := max(rate[b]*float64(vb), rate[b+1]*float64(vb1))
					k2 := keptOut + overlapIn(curPre, b, vPre[b], mid) +
						overlapIn(curPre, b+1, mid, vPre[b+2])
					j := max(maxOther, local) + p.cfg.Mig.Cost(total-k2)/p.cfg.horizon()
					if j < bestJ-1e-12 || (j <= bestJ+1e-12 && local < bestLocal-1e-12) {
						bestJ, bestLocal, bestK, bestDonor = j, local, k, donor
					} else if tied && local < plLocal-1e-12 {
						plJ, plLocal, plK, plDonor = j, local, k, donor
					}
					if (j > prevJ || (j == prevJ && local >= prevLocal)) && !(tied && local < prevLocal) {
						break
					}
					prevJ, prevLocal = j, local
				}
			}
			if bestK == 0 {
				bestK, bestDonor, bestJ = plK, plDonor, plJ
			}
			if bestK > 0 {
				recv := b + 1
				if bestDonor == b+1 {
					recv = b
				}
				v[bestDonor] -= bestK
				v[recv] += bestK
				if bestDonor == b {
					vPre[b+1] -= bestK
				} else {
					vPre[b+1] += bestK
				}
				kept = keptOut + overlapIn(curPre, b, vPre[b], vPre[b+1]) +
					overlapIn(curPre, b+1, vPre[b+1], vPre[b+2])
				best = bestJ
				improved = true
				if best < lowest-1e-12 {
					lowest = best
					copy(lowestV, v)
				}
			}
		}
		if !improved {
			break
		}
	}
	if best > lowest+1e-12 {
		v = lowestV
	}
	plan.Evaluations = evals
	plan.OldMaxMs = maxLoad(rate, cur)
	plan.New = v
	plan.MovedRows = MovedRows(cur, v)
	plan.NewMaxMs = maxLoad(rate, v)
	plan.MigMs = p.cfg.Mig.Cost(plan.MovedRows)
	return plan
}

func maxLoad(rate []float64, v core.Vector) float64 {
	m := 0.0
	for i := range v {
		if l := rate[i] * float64(v[i]); l > m {
			m = l
		}
	}
	return m
}
