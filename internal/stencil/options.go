package stencil

import (
	"fmt"
	"time"

	"netpart/internal/core"
	"netpart/internal/faults"
	"netpart/internal/obs"
	"netpart/internal/repart"
	"netpart/internal/simnet"
	"netpart/internal/spmd"
)

// Options selects the policies of a run on either runtime, Sim or Live.
// The zero value is a plain run: every rank at nominal speed, all iters
// cycles, nothing observed. An option the runtime cannot honour is refused
// by name at the call, never ignored.
type Options struct {
	// WorkFactor emulates heterogeneity: rank r's compute costs
	// WorkFactor[r] times the nominal (Live repeats the row update, Sim
	// charges the operations that many times). Nil means uniform.
	WorkFactor []int
	// Slowdown injects external load: a compute-time factor for (rank,
	// iteration), composing with WorkFactor. Nil means none.
	Slowdown func(rank, iter int) float64
	// Injector runs under a fault schedule. Its slowdown faults stretch
	// compute times on both runtimes, composing with Slowdown. On Sim its
	// packet faults are injected below the simulator's reliability layer:
	// drops cost retransmission round trips of RetransmitMs each and delays
	// stretch delivery, but messages still arrive intact and in order (a
	// live transport takes its injector from mmps.WithInjector). A crash
	// is honoured only by Live with FT.
	Injector     faults.Injector
	RetransmitMs float64
	// Tol, when positive, runs until the global maximum point change of an
	// iteration falls to it (iters is then the cap): each iteration ends
	// with a max-reduction gathered at rank 0 and broadcast back.
	Tol float64
	// RebalanceEvery repartitions every R iterations from the ranks'
	// measured compute times through the internal/repart engine — the
	// paper's §7 future-work strategy for load imbalance — and migrates the
	// grid rows to their new owners (0 disables). With a Trigger it is the
	// fallback cadence instead.
	RebalanceEvery int
	// Trigger, when non-nil, switches to drift-triggered repartitioning:
	// the ranks enter a round every checkEvery (4) iterations, but rank 0
	// only plans when the trigger fired since the last round or the
	// RebalanceEvery fallback is due. Wire a repart.DriftTrigger into
	// drift.Config.Notify and hand the monitor to Cycles.
	Trigger repart.Trigger
	// Planner parameterizes the repartitioning search (migration cost,
	// amortization horizon). The zero value balances load with free
	// migration.
	Planner repart.PlannerConfig
	// Metrics, when non-nil, receives the runtime's series — Sim's spmd.*
	// virtual times, messages and bytes, Live's MetricLive* wall times, FT's
	// MetricFT* counters — and the repartitioning engine's repart.* series.
	Metrics *obs.Registry
	// Trace, when non-nil, receives one span per rank per cycle for Chrome
	// export and one "repart" event per planning decision.
	Trace *obs.Recorder
	// Cycles, when non-nil, receives every rank's cycle and border-exchange
	// duration (virtual on Sim, wall on Live) as it completes, from that
	// rank's goroutine — the hookup point for the drift monitor
	// (internal/obs/drift).
	Cycles obs.CycleSink
	// SimOptions configure Sim's simulator (jitter, message observers).
	SimOptions []simnet.Option
	// TimeOnly runs Sim's protocol — the same sends, bytes, compute charges
	// and virtual time — without computing a grid value, for a caller that
	// reads times, messages and plans and drops the grid. Result.Grid is
	// nil.
	TimeOnly bool
	// FT, when non-nil, runs Live's fault-tolerant protocol (ftlive.go):
	// buddy checkpoints, failure detection and recovery onto the survivors.
	FT *FT
}

// FT configures the fault-tolerant live runtime. Zero fields take the
// documented defaults.
type FT struct {
	// Repartition maps the surviving ranks to a new full-size partition
	// vector (zero rows retire a rank). Nil splits rows evenly over the
	// survivors. It must be deterministic: every survivor calls it with the
	// same arguments and must obtain the same vector.
	Repartition func(alive []int) (core.Vector, error)
	// CheckpointEvery is the checkpoint period in cycles (default 8).
	CheckpointEvery int
	// DetectTimeout is one bounded-receive window (default 200ms).
	DetectTimeout time.Duration
	// DetectRetries is how many extra windows a silent peer is granted
	// before the NodeFailed verdict (default 3).
	DetectRetries int
}

// Result is the outcome of a run on either runtime.
type Result struct {
	// ElapsedMs is Sim's virtual time for the iterations (initial
	// distribution excluded, as in the paper's Table 2).
	ElapsedMs float64
	// Elapsed is Live's wall-clock time for the iterations, initial
	// distribution excluded likewise.
	Elapsed time.Duration
	// Grid is the assembled final grid; nil in a time-only run.
	Grid [][]float64
	// Report carries Sim's substrate statistics.
	Report spmd.Report
	RunStats
	// Failed lists, under FT, every rank that left the computation by crash
	// or excommunication (not ranks retired with zero rows), ascending.
	Failed []int
	// Events records, under FT, every completed recovery in order.
	Events []RecoveryEvent
}

// refuse names the first option that the runtime (Live when live is set,
// else Sim) cannot honour for a run of tasks ranks, or returns nil.
func (o Options) refuse(live bool, tasks int) error {
	ft := o.FT != nil
	repartitions := "rows move only on recovery, as FT.Repartition places them"
	for _, r := range []struct {
		bad        bool
		field, why string
	}{
		{live && o.TimeOnly, "TimeOnly", "a live run computes every value it times"},
		{live && o.SimOptions != nil, "SimOptions", "they configure the simulator"},
		{live && o.RetransmitMs != 0, "RetransmitMs", "it prices the simulator's retransmissions"},
		{!live && ft, "FT", "a simulated rank cannot fail"},
		{o.Tol > 0 && o.TimeOnly, "Tol", "under TimeOnly no point change is computed to converge on"},
		{o.Tol > 0 && ft, "Tol", "under FT no convergence reduction survives a failure"},
		{ft && o.RebalanceEvery != 0, "RebalanceEvery", repartitions},
		{ft && o.Trigger != nil, "Trigger", repartitions},
		{ft && o.Planner != (repart.PlannerConfig{}), "Planner", repartitions},
	} {
		if r.bad {
			return fmt.Errorf("stencil: %s cannot honour Options.%s: %s", runtimeName(live), r.field, r.why)
		}
	}
	if o.Injector != nil && !ft {
		for rank := 0; rank < tasks; rank++ {
			if c := o.Injector.CrashCycle(rank); c >= 0 {
				return fmt.Errorf("stencil: %s cannot honour Options.Injector: it crashes rank %d at cycle %d, and only Live with FT recovers",
					runtimeName(live), rank, c)
			}
		}
	}
	return nil
}

func runtimeName(live bool) string {
	if live {
		return "Live"
	}
	return "Sim"
}

// load composes the three load sources into the job's one factor for
// (rank, iter): the work factor, the caller's slowdown and the injector's
// slowdown faults, multiplied in that order. Nil when none is set.
func (o Options) load() func(rank, iter int) float64 {
	wf, slow, inj := o.WorkFactor, o.Slowdown, o.Injector
	if wf == nil && slow == nil && inj == nil {
		return nil
	}
	return func(rank, iter int) float64 {
		factor := 1.0
		if wf != nil {
			factor = float64(wf[rank])
		}
		if slow != nil {
			factor *= slow(rank, iter)
		}
		if inj != nil {
			factor *= inj.Slowdown(rank, iter)
		}
		return factor
	}
}
