package experiments

import (
	"fmt"
	"strings"
	"time"

	"netpart/internal/core"
	"netpart/internal/cost"
	"netpart/internal/faults"
	"netpart/internal/mmps"
	"netpart/internal/model"
	"netpart/internal/obs"
	"netpart/internal/stencil"
)

// FaultTolResult measures the cost of surviving a node loss: the same
// STEN-2 run on the 12-rank paper testbed executed fault-free and with one
// node crashed mid-run, both over the live (goroutines + in-process
// transport) runtime with buddy checkpointing enabled.
type FaultTolResult struct {
	N, Iters   int
	CrashRank  int
	CrashCycle int
	// FaultFreeMs is the wall time of the run with no faults injected
	// (checkpointing still on, so its overhead is included).
	FaultFreeMs float64
	// RecoveredMs is the wall time of the run that lost a node and
	// recovered.
	RecoveredMs float64
	// RecoveryLatencyMs is the verdict-to-resume time of the recovery.
	RecoveryLatencyMs float64
	// RollbackCycle is the checkpoint cycle the survivors resumed from.
	RollbackCycle int
	// ReplayedCycles counts cycles recomputed because of the rollback.
	ReplayedCycles int64
	// DetectBudgetMs is the configured silence budget before a verdict.
	DetectBudgetMs float64
	// VectorBefore and VectorAfter are the partition vectors around the
	// recovery (After re-partitioned over the surviving 11 ranks).
	VectorBefore, VectorAfter core.Vector
	// Exact reports both grids bit-for-bit matching the sequential
	// reference.
	Exact bool
}

// FaultTol runs the fault-tolerance experiment. The crash strikes rank 3
// (a Sparc2) at the given cycle; survivors re-run the paper's partitioning
// algorithm over the reduced network and roll back to the last buddy
// checkpoint.
func FaultTol(e *Env, n, iters int) (*FaultTolResult, error) {
	const ranks, crashRank, ckptEvery = 12, 3, 8
	crashCycle := iters / 2
	detectTimeout := 100 * time.Millisecond
	const detectRetries = 2

	cfg := PaperConfig(6, 6)
	vec, err := core.Decompose(e.Net, cfg, n, model.OpFloat)
	if err != nil {
		return nil, err
	}
	placement := make([]string, 0, ranks)
	for i := 0; i < 6; i++ {
		placement = append(placement, model.Sparc2Cluster)
	}
	for i := 0; i < 6; i++ {
		placement = append(placement, model.IPCCluster)
	}
	want := stencil.Sequential(stencil.NewGrid(n), iters)

	run := func(inj faults.Injector) (stencil.Result, *obs.Registry, error) {
		locals, err := mmps.NewLocalWorld(ranks)
		if err != nil {
			return stencil.Result{}, nil, err
		}
		defer func() {
			for _, l := range locals {
				l.Close()
			}
		}()
		world := make([]mmps.Transport, ranks)
		for i, l := range locals {
			world[i] = l
		}
		reg := obs.NewRegistry()
		res, err := stencil.Live(world, vec, stencil.STEN2, n, iters, stencil.Options{
			Injector: inj,
			Metrics:  reg,
			FT: &stencil.FT{
				Repartition:     stencil.Repartitioner(e.Net, cost.PaperTable(), stencil.STEN2, n, iters, placement),
				CheckpointEvery: ckptEvery,
				DetectTimeout:   detectTimeout,
				DetectRetries:   detectRetries,
			},
		})
		return res, reg, err
	}

	clean, _, err := run(nil)
	if err != nil {
		return nil, fmt.Errorf("fault-free run: %w", err)
	}
	eng := faults.NewEngine(faults.Schedule{
		Crashes: []faults.Crash{{Rank: crashRank, Cycle: crashCycle}},
	}, 1, nil)
	crashed, reg, err := run(eng)
	if err != nil {
		return nil, fmt.Errorf("crashed run: %w", err)
	}
	if len(crashed.Events) == 0 {
		return nil, fmt.Errorf("crashed run recorded no recovery")
	}
	ev := crashed.Events[0]
	return &FaultTolResult{
		N: n, Iters: iters,
		CrashRank:         crashRank,
		CrashCycle:        crashCycle,
		FaultFreeMs:       float64(clean.Elapsed) / float64(time.Millisecond),
		RecoveredMs:       float64(crashed.Elapsed) / float64(time.Millisecond),
		RecoveryLatencyMs: ev.LatencyMs,
		RollbackCycle:     ev.RollbackCycle,
		ReplayedCycles:    reg.Counter(stencil.MetricFTReplayedC).Value(),
		DetectBudgetMs:    float64(detectTimeout) / float64(time.Millisecond) * float64(detectRetries+1),
		VectorBefore:      append(core.Vector(nil), vec...),
		VectorAfter:       ev.Vector,
		Exact:             gridsMatch(clean.Grid, want) && gridsMatch(crashed.Grid, want),
	}, nil
}

// renderFaultTol formats the experiment for the CLI.
func renderFaultTol(r *FaultTolResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "STEN-2, N=%d, %d iterations, 12 ranks (6 Sparc2 + 6 IPC), checkpoint every 8 cycles\n", r.N, r.Iters)
	fmt.Fprintf(&b, "crash injected  : rank %d at cycle %d (detect budget %.0f ms of silence)\n",
		r.CrashRank, r.CrashCycle, r.DetectBudgetMs)
	fmt.Fprintf(&b, "fault-free run  : %8.1f ms\n", r.FaultFreeMs)
	fmt.Fprintf(&b, "recovered run   : %8.1f ms (%.2fx fault-free)\n", r.RecoveredMs, r.RecoveredMs/r.FaultFreeMs)
	fmt.Fprintf(&b, "recovery latency: %8.1f ms verdict-to-resume\n", r.RecoveryLatencyMs)
	fmt.Fprintf(&b, "rollback        : resumed from cycle %d, %d rank-cycles replayed\n", r.RollbackCycle, r.ReplayedCycles)
	fmt.Fprintf(&b, "vector before   : %v\n", r.VectorBefore)
	fmt.Fprintf(&b, "vector after    : %v (rank %d retired)\n", r.VectorAfter, r.CrashRank)
	if r.Exact {
		fmt.Fprintf(&b, "verification    : both grids match the sequential reference bit-for-bit\n")
	} else {
		fmt.Fprintf(&b, "verification    : FAILED — grids diverge from the sequential reference\n")
	}
	return b.String()
}
