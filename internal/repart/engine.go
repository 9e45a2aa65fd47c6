package repart

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"netpart/internal/core"
	"netpart/internal/cost"
	"netpart/internal/model"
	"netpart/internal/obs"
)

// Metric names the engine maintains.
const (
	// MetricPlans counts planning decisions taken (including keeps).
	MetricPlans = "repart.plans"
	// MetricMigratedRows counts rows whose owner changed across all plans.
	MetricMigratedRows = "repart.migrated_rows"
	// MetricPlanMs is the planning-latency histogram.
	MetricPlanMs = "repart.plan_ms"
)

// Trigger gates repartitioning rounds. Take reports whether a repartition
// has been requested since the last call and clears the request;
// implementations must be safe for concurrent use (the drift monitor fires
// from per-rank goroutines while rank 0 polls).
type Trigger interface {
	Take() bool
}

// DriftTrigger is an edge-triggered latch connecting the drift monitor's
// threshold events to the repartitioning loop: wire Fire into
// drift.Config.Notify and hand the trigger to the adaptive runtime. The
// zero value is ready to use.
type DriftTrigger struct {
	fired atomic.Bool
}

// Fire latches a repartition request (called from the drift monitor).
func (t *DriftTrigger) Fire() {
	if t != nil {
		t.fired.Store(true)
	}
}

// Take implements Trigger.
func (t *DriftTrigger) Take() bool {
	if t == nil {
		return false
	}
	return t.fired.Swap(false)
}

// Engine ties a Planner to observability and runs the rank-0-decides
// protocol round. The zero value plans with a zero-config Planner and
// records nothing; one Engine is shared by all ranks of a run (the
// planner is pure and the sinks are concurrency-safe).
type Engine struct {
	// Planner computes plans; nil uses a zero-config planner.
	Planner *Planner
	// Metrics receives repart.plans / repart.migrated_rows counters and
	// the repart.plan_ms latency histogram (nil-safe).
	Metrics *obs.Registry
	// Trace receives one structured "repart" event per decision (nil-safe).
	Trace *obs.Recorder
}

// planner returns the engine's planner, defaulting a nil one.
func (e *Engine) planner() *Planner {
	if e == nil || e.Planner == nil {
		return NewPlanner(PlannerConfig{})
	}
	return e.Planner
}

// Decide plans at rank 0 and exports the decision: counters, latency
// histogram and a "repart" trace event.
func (e *Engine) Decide(cycle int, reason string, cur core.Vector, measuredMs []float64) Plan {
	start := time.Now()
	plan := e.planner().Plan(cycle, reason, cur, measuredMs)
	plan.PlanMs = float64(time.Since(start)) / float64(time.Millisecond)
	if e == nil {
		return plan
	}
	e.Metrics.Counter(MetricPlans).Inc()
	e.Metrics.Histogram(MetricPlanMs).Observe(plan.PlanMs)
	if plan.Changed() {
		e.Metrics.Counter(MetricMigratedRows).Add(int64(plan.MovedRows))
	}
	e.Trace.Emit("repart", map[string]any{
		"cycle":       plan.Cycle,
		"reason":      plan.Reason,
		"old":         fmt.Sprint(plan.Old),
		"new":         fmt.Sprint(plan.New),
		"moved_rows":  plan.MovedRows,
		"old_max_ms":  plan.OldMaxMs,
		"new_max_ms":  plan.NewMaxMs,
		"mig_ms":      plan.MigMs,
		"evaluations": plan.Evaluations,
		"plan_ms":     plan.PlanMs,
	})
	return plan
}

// Round runs one gather → plan → broadcast exchange over lk: every rank
// reports its (measured window, row count); rank 0 assembles the current
// vector, decides via Decide (or keeps the vector when plan is false —
// the round still completes so every rank stays in lockstep), and
// broadcasts the (old, new) pair. All ranks return the same pair; the
// decision fields of the returned Plan are populated at rank 0 only.
// Migration is the caller's next step (Migrator.Migrate) when the plan
// changed.
//
//netpart:lockstep
func (e *Engine) Round(lk Link, cycle int, reason string, rows int, measuredMs float64, plan bool) (Plan, error) {
	rank, size := lk.Rank(), lk.Size()
	if rank != 0 {
		if err := lk.Send(0, EncodeMeasurement(measuredMs, rows)); err != nil {
			return Plan{}, err
		}
		buf, err := lk.Recv(0)
		if err != nil {
			return Plan{}, err
		}
		old, new, err := DecodeVectorPair(buf)
		if err != nil {
			return Plan{}, err
		}
		return Plan{Cycle: cycle, Reason: reason, Old: old, New: new}, nil
	}
	times := make([]float64, size)
	cur := make(core.Vector, size)
	times[0], cur[0] = measuredMs, rows
	for src := 1; src < size; src++ {
		buf, err := lk.Recv(src)
		if err != nil {
			return Plan{}, err
		}
		ms, r, err := DecodeMeasurement(buf)
		if err != nil {
			return Plan{}, err
		}
		times[src], cur[src] = ms, r
	}
	var out Plan
	if plan {
		out = e.Decide(cycle, reason, cur, times)
	} else {
		out = keep(cycle, reason, cur)
	}
	msg := EncodeVectorPair(out.Old, out.New)
	for dst := 1; dst < size; dst++ {
		if err := lk.Send(dst, msg); err != nil {
			return Plan{}, err
		}
	}
	return out, nil
}

// Survivors returns the failure-recovery planning policy: re-run the
// paper's partitioning algorithm (core.Partition) over the network reduced
// to the surviving processors. Each cluster's Available count drops to its
// number of surviving ranks, clusters left empty are removed, and the
// resulting configuration's vector is mapped back onto the surviving
// ranks in rank order (survivors the configuration does not use retire
// with zero rows). placement names the hosting cluster of each original
// rank. Results are memoized; the policy is deterministic and safe for
// concurrent use by every rank of a run.
func Survivors(net *model.Network, costs *cost.Table, ann *core.Annotations, placement []string) func(alive []int) (core.Vector, error) {
	var mu sync.Mutex
	memo := map[string]core.Vector{}
	return func(alive []int) (core.Vector, error) {
		key := fmt.Sprint(alive)
		mu.Lock()
		defer mu.Unlock()
		if vec, ok := memo[key]; ok {
			return append(core.Vector(nil), vec...), nil
		}
		aliveIn := make(map[string][]int) // cluster -> surviving ranks, ascending
		for _, r := range alive {
			if r < 0 || r >= len(placement) {
				return nil, fmt.Errorf("repart: surviving rank %d outside placement", r)
			}
			aliveIn[placement[r]] = append(aliveIn[placement[r]], r)
		}
		reduced := *net
		reduced.Clusters = nil
		for _, c := range net.Clusters {
			if len(aliveIn[c.Name]) == 0 {
				continue
			}
			cc := *c
			cc.Available = len(aliveIn[c.Name])
			reduced.Clusters = append(reduced.Clusters, &cc)
		}
		est, err := core.NewEstimator(&reduced, costs, ann)
		if err != nil {
			return nil, err
		}
		res, err := core.Partition(est)
		if err != nil {
			return nil, err
		}
		vec := make(core.Vector, len(placement))
		task := 0
		for i, name := range res.Config.Clusters {
			ranks := aliveIn[name]
			for p := 0; p < res.Config.Counts[i]; p++ {
				vec[ranks[p]] = res.Vector[task]
				task++
			}
		}
		memo[key] = append(core.Vector(nil), vec...)
		return vec, nil
	}
}
