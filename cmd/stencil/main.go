// Command stencil runs the paper's evaluation application end to end:
// partition (or take an explicit configuration), execute STEN-1/STEN-2 on
// the simulated network or over real UDP message passing, verify the
// result against the sequential reference, and report elapsed time.
//
// Usage:
//
//	stencil [-n 600] [-variant sten1|sten2] [-iters 10] [-tol 0]
//	        [-p1 -1] [-p2 -1]            explicit configuration (-1 = auto-partition)
//	        [-runtime sim|live]          simulated network or real goroutines+UDP
//	        [-verify]                    check against the sequential solver
//	        [-metrics] [-trace out.jsonl] [-chrome out.json] [-serve :0] [-driftpct 10]
//	        [-faults "crash:3@12;drop:0.05;slow:1,4"] [-faultseed 1] [-ckpt 8]
//	        [-repart] [-repart-every 4] [-repart-horizon 32]
//
// The flags build one stencil.Options, run by stencil.Sim or stencil.Live,
// and mean the same on both: -tol is Tol (run until an iteration's global
// maximum point change falls to it, -iters the cap), -faults is the
// Injector, applied as written (its slow:RANK,FACTOR clauses load a rank on
// either runtime), and -repart is RebalanceEvery + Planner, migration priced
// by the cost table that made the decision. A combination the runtime
// cannot honour is refused, naming the option, and so is a fault clause
// that names a rank the run does not have or starts at or after -iters;
// none is ignored. The only runtime difference is the world: the sim
// runtime injects packet faults below the simulated reliability layer,
// while the live runtime runs its ranks over loopback UDP, emulates the 2x
// slower IPCs by doubling their row work, and under -faults switches to the
// fault-tolerant protocol (Options.FT): buddy checkpointing every -ckpt
// cycles, failure detection, and recovery by re-running the paper's
// partitioning algorithm over the survivors.
//
// When the sim runtime auto-partitions with -metrics, a drift monitor
// compares each cycle with the predicted T_c, and with -repart its events
// trigger the re-plans, -repart-every being the fallback. The live runtime
// has no drift monitor, because the prediction is for the simulated
// testbed, not this host: its -repart rounds run every -repart-every
// cycles. A -repart that no monitor triggers and -repart-every 0 would run
// no round, and is refused.
//
//netpart:deterministic
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"netpart/internal/commbench"
	"netpart/internal/core"
	"netpart/internal/cost"
	"netpart/internal/faults"
	"netpart/internal/mmps"
	"netpart/internal/model"
	"netpart/internal/obs"
	"netpart/internal/obs/drift"
	"netpart/internal/obs/serve"
	"netpart/internal/repart"
	"netpart/internal/stencil"
	"netpart/internal/topo"
	"netpart/internal/trace"
)

// runOptions collects the command's flags.
type runOptions struct {
	N             int
	Variant       string // sten1 or sten2
	Iters         int    // iterations, the cap under Tol
	P1, P2        int    // explicit configuration (-1 = auto-partition)
	Runtime       string // sim or live
	Verify        bool
	Tol           float64 // convergence tolerance (0 = exactly Iters iterations)
	Metrics       bool    // print the runtime metrics table at exit
	TraceFile     string  // per-cycle span events as JSONL ("" = off)
	ChromeFile    string  // chrome://tracing export of the same spans ("" = off)
	Faults        string  // fault schedule ("" = none)
	FaultSeed     uint64  // deterministic injector seed
	Ckpt          int     // checkpoint period for the fault-tolerant live runtime
	Serve         string  // telemetry listen address ("" = off)
	DriftPct      float64
	Repart        bool // continuous repartitioning
	RepartEvery   int  // rebalance period, the fallback under drift triggering (cycles)
	RepartHorizon int  // cycles over which a migration must amortize
}

func main() {
	var o runOptions
	flag.IntVar(&o.N, "n", 600, "grid size N (N×N grid, N row PDUs)")
	flag.StringVar(&o.Variant, "variant", "sten2", "sten1 (no overlap) or sten2 (overlapped)")
	flag.IntVar(&o.Iters, "iters", 10, "Jacobi iterations (the cap under -tol)")
	flag.IntVar(&o.P1, "p1", -1, "Sparc2 processors (-1 = choose via the partitioning method)")
	flag.IntVar(&o.P2, "p2", -1, "IPC processors (-1 = choose via the partitioning method)")
	flag.StringVar(&o.Runtime, "runtime", "sim", "sim (virtual time) or live (goroutines + UDP)")
	flag.BoolVar(&o.Verify, "verify", true, "verify against the sequential reference")
	flag.Float64Var(&o.Tol, "tol", 0, "run until an iteration's global maximum point change falls to this, -iters at most (0 = exactly -iters)")
	flag.BoolVar(&o.Metrics, "metrics", false, "print per-cycle runtime metrics (cycle/exchange timings, messages, bytes)")
	flag.StringVar(&o.TraceFile, "trace", "", "write per-cycle span events (one JSON object per line) to this file")
	flag.StringVar(&o.ChromeFile, "chrome", "", "write a chrome://tracing trace-event file of the run's cycles")
	flag.StringVar(&o.Faults, "faults", "", `fault schedule, e.g. "crash:3@12;drop:0.05;delay:0.1,2;slow:1,4;part:6@100-200"`)
	flag.Uint64Var(&o.FaultSeed, "faultseed", 1, "seed for the deterministic fault injector")
	flag.IntVar(&o.Ckpt, "ckpt", 8, "checkpoint period (cycles) for the fault-tolerant live runtime")
	flag.StringVar(&o.Serve, "serve", "", `telemetry listen address (e.g. ":9090", ":0" picks a port): /metrics, /metrics.json, /healthz, /debug/pprof/; the process keeps serving after the run until interrupted`)
	flag.Float64Var(&o.DriftPct, "driftpct", drift.DefaultThresholdPct, "drift-event threshold: |EWMA deviation| of measured vs predicted per-cycle time, percent")
	flag.BoolVar(&o.Repart, "repart", false, "continuous repartitioning: an incremental re-plan and row migration every -repart-every cycles, or on a drift event when the sim runtime's drift monitor is on")
	flag.IntVar(&o.RepartEvery, "repart-every", 4, "re-plan every this many cycles, the fallback when drift events trigger the re-plans (0 = drift events only)")
	flag.IntVar(&o.RepartHorizon, "repart-horizon", repart.DefaultHorizonCycles, "cycles a migration must amortize over in the planner's T_mig objective term")
	flag.Parse()

	if err := run(os.Stdout, o); err != nil {
		fmt.Fprintln(os.Stderr, errorLine(err))
		os.Exit(1)
	}
}

// errorLine is what a failed run prints: the error after the command's
// "stencil:" prefix, which the stencil library's own errors already carry.
func errorLine(err error) string {
	msg := err.Error()
	if strings.HasPrefix(msg, "stencil: ") {
		return msg
	}
	return "stencil: " + msg
}

func run(w io.Writer, o runOptions) error {
	var variant stencil.Variant
	switch o.Variant {
	case "sten1":
		variant = stencil.STEN1
	case "sten2":
		variant = stencil.STEN2
	default:
		return fmt.Errorf("unknown variant %q", o.Variant)
	}
	net := model.PaperTestbed()

	// Observability: a registry collects runtime counters/histograms for
	// -metrics; a recorder collects per-cycle spans for -trace / -chrome.
	var metrics *obs.Registry
	var rec *obs.Recorder
	if o.Metrics || o.Serve != "" {
		metrics = obs.NewRegistry()
	}
	var traceOut *os.File
	if o.TraceFile != "" {
		f, err := os.Create(o.TraceFile)
		if err != nil {
			return err
		}
		defer f.Close()
		traceOut = f
		rec = obs.NewRecorder(f)
	} else if o.ChromeFile != "" {
		rec = obs.NewRecorder(nil) // memory-only, exported at exit
	}

	// The telemetry endpoint starts before the workload so the run is
	// scrapeable while it executes, and Wait() keeps it up afterwards.
	var srv *serve.Server
	if o.Serve != "" {
		var err error
		srv, err = serve.Start(o.Serve, metrics)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(w, "telemetry      : %s/metrics (also /metrics.json /healthz /debug/pprof/)\n", srv.URL())
	}

	// The cost table that makes the decision also prices every later one:
	// -repart's migration term and the FT repartitioner's searches. It is
	// the fitted table when the command auto-partitions, the paper's
	// constants with an explicit configuration.
	n, iters := o.N, o.Iters
	table := cost.PaperTable()
	var vec core.Vector
	var predictedTcMs float64
	chosen := struct{ p1, p2 int }{o.P1, o.P2}
	if chosen.p1 < 0 || chosen.p2 < 0 {
		fmt.Fprintln(w, "partitioning: benchmarking communication and searching configurations...")
		bench, err := commbench.Run(net, []topo.Topology{topo.OneD{}}, commbench.DefaultGrid())
		if err != nil {
			return err
		}
		table = bench.Table
		est, err := core.NewEstimator(net, table, stencil.Annotations(n, variant, iters))
		if err != nil {
			return err
		}
		res, err := core.Partition(est)
		if err != nil {
			return err
		}
		chosen.p1, chosen.p2 = res.Config.Counts[0], res.Config.Counts[1]
		vec = res.Vector
		predictedTcMs = res.TcMs
		fmt.Fprintf(w, "partitioning: chose %v, predicted T_c %.3f ms/cycle (%d evaluations)\n",
			res.Config, res.TcMs, res.Evaluations)
	}
	cfgCost := cost.Config{
		Clusters: []string{model.Sparc2Cluster, model.IPCCluster},
		Counts:   []int{chosen.p1, chosen.p2},
	}
	if vec == nil {
		var err error
		vec, err = core.Decompose(net, cfgCost, n, model.OpFloat)
		if err != nil {
			return err
		}
	}
	tasks := chosen.p1 + chosen.p2
	fmt.Fprintf(w, "configuration  : sparc2:%d ipc:%d\n", chosen.p1, chosen.p2)
	fmt.Fprintf(w, "partition vec  : %v\n", vec)

	opts := stencil.Options{Tol: o.Tol, Metrics: metrics, Trace: rec}
	if o.Faults != "" {
		sched, err := faults.Parse(o.Faults)
		if err != nil {
			return err
		}
		if err := checkFaults(sched, tasks, iters); err != nil {
			return err
		}
		fmt.Fprintf(w, "fault schedule : %s (seed %d)\n", sched.String(), o.FaultSeed)
		opts.Injector = faults.NewEngine(sched, o.FaultSeed, metrics)
	}
	if o.Repart {
		migParams, err := table.Comm(model.Sparc2Cluster, "1-D")
		if err != nil {
			return err
		}
		opts.RebalanceEvery = o.RepartEvery
		opts.Planner = repart.PlannerConfig{
			Mig:           cost.MigrationFromParams(migParams, float64(stencil.BytesPerPoint*n)),
			HorizonCycles: o.RepartHorizon,
		}
	}

	// Drift monitor: with the estimator's prediction in hand, flag sustained
	// deviation of the measured cycles from the predicted T_c (gauges
	// drift.pct{task=...}, events on -trace); under -repart each event
	// latches the trigger that the next round consumes. Only the sim
	// runtime gets one: the prediction is for the simulated testbed. It
	// watches T_c only: a rank's exchange wait on a staggered phase depends
	// on its neighbours' timing (an edge rank waits on one, an interior
	// rank on two), so the one predicted T_comm is no per-rank baseline.
	// The predicted T_c is the mean of a commbench.StaggerCycles-cycle run,
	// the first cycles' fill included (a rank at a crossing runs its first
	// cycle up to 60 % over it), so no event fires before that many cycles.
	if o.Runtime == "sim" && metrics != nil && predictedTcMs > 0 {
		driftCfg := drift.Config{
			PredCycleMs:  predictedTcMs,
			ThresholdPct: o.DriftPct,
			Warmup:       commbench.StaggerCycles,
		}
		if o.Repart {
			trig := &repart.DriftTrigger{}
			driftCfg.Notify = func(drift.Event) { trig.Fire() }
			opts.Trigger = trig
		}
		opts.Cycles = drift.New(driftCfg, metrics, rec)
	}
	if o.Repart && o.RepartEvery <= 0 && opts.Trigger == nil {
		return fmt.Errorf("-repart with -repart-every %d re-plans on drift events only, and no drift monitor watches this run (one does only on an auto-partitioned -runtime sim run with -metrics or -serve)", o.RepartEvery)
	}

	var res stencil.Result
	switch o.Runtime {
	case "sim":
		var err error
		if res, err = stencil.Sim(net, cfgCost, vec, variant, n, iters, opts); err != nil {
			return err
		}
		fmt.Fprintf(w, "simulated time : %.1f ms (%d iterations, %s)\n", res.ElapsedMs, res.Iterations, variant)
		if predictedTcMs > 0 && res.Iterations > 0 {
			// Estimate-vs-measured drift: predicted per-cycle cost
			// against the simulated per-cycle average.
			measured := res.ElapsedMs / float64(res.Iterations)
			drift := trace.DeviationPct(measured, predictedTcMs)
			metrics.Gauge("stencil.drift_pct").Set(drift)
			fmt.Fprintf(w, "estimate drift : predicted %.3f vs measured %.3f ms/cycle (%+.1f%%)\n",
				predictedTcMs, measured, drift)
		}
	case "live":
		worldOpts := []mmps.Option{mmps.WithRecvTimeout(60 * time.Second), mmps.WithMetrics(metrics)}
		// Emulate the 2x slower IPCs by doubling their row work.
		placement := make([]string, tasks)
		opts.WorkFactor = make([]int, tasks)
		for i := range placement {
			placement[i], opts.WorkFactor[i] = model.Sparc2Cluster, 1
			if i >= chosen.p1 {
				placement[i], opts.WorkFactor[i] = model.IPCCluster, 2
			}
		}
		if opts.Injector != nil {
			// The transport injects the packet faults, and the run is the
			// fault-tolerant one: buddy checkpoints, detection, and
			// recovery by re-partitioning over the survivors.
			worldOpts = append(worldOpts, mmps.WithInjector(opts.Injector))
			opts.FT = &stencil.FT{
				Repartition:     stencil.Repartitioner(net, table, variant, n, iters, placement),
				CheckpointEvery: o.Ckpt,
			}
		}
		eps, err := mmps.NewUDPWorld(tasks, worldOpts...)
		if err != nil {
			return err
		}
		world := make([]mmps.Transport, tasks)
		for i, ep := range eps {
			world[i] = ep
		}
		defer func() {
			for _, ep := range eps {
				_ = ep.Close() // best-effort teardown; the run's result is already in hand
			}
		}()
		if res, err = stencil.Live(world, vec, variant, n, iters, opts); err != nil {
			return err
		}
		fmt.Fprintf(w, "wall-clock time: %v (%d iterations, %s, %d tasks over UDP)\n",
			res.Elapsed, res.Iterations, variant, tasks)
	default:
		return fmt.Errorf("unknown runtime %q", o.Runtime)
	}

	for _, s := range res.Report.Segments {
		fmt.Fprintf(w, "  segment %-8s %6d msgs  %8d bytes  busy %.1f ms\n", s.Name, s.Messages, s.Bytes, s.BusyMs)
	}
	if o.Tol > 0 {
		fmt.Fprintf(w, "convergence    : Δ %.4g after %d iterations (tolerance %g, cap %d)\n",
			res.FinalDelta, res.Iterations, o.Tol, iters)
	}
	if opts.FT != nil {
		fmt.Fprintf(w, "fault tolerance: %d recoveries, failed ranks %v\n", len(res.Events), res.Failed)
		for _, ev := range res.Events {
			fmt.Fprintf(w, "  epoch %d: dead %v, rolled back to cycle %d, recovery latency %.1f ms, vector %v\n",
				ev.Epoch, ev.Dead, ev.RollbackCycle, ev.LatencyMs, ev.Vector)
		}
	}
	if o.Repart {
		fmt.Fprintf(w, "repartitioning : %d rounds, %d plans applied, %d rows migrated, final vector %v\n",
			len(res.Plans), res.Rebalances, res.MigratedRows, res.FinalVector)
		for _, p := range res.Plans {
			if p.Changed() {
				fmt.Fprintf(w, "  %s\n", p)
			}
		}
	}

	if o.Verify {
		// Under -tol the reference runs to the same tolerance and must
		// stop at the same iteration.
		want, wantIters := [][]float64(nil), iters
		if o.Tol > 0 {
			want, wantIters, _ = stencil.SequentialUntil(stencil.NewGrid(n), o.Tol, iters)
		} else {
			want = stencil.Sequential(stencil.NewGrid(n), iters)
		}
		if res.Iterations != wantIters {
			return fmt.Errorf("verification FAILED: ran %d iterations, the sequential reference %d", res.Iterations, wantIters)
		}
		for i := range want {
			for j := range want[i] {
				if res.Grid[i][j] != want[i][j] {
					return fmt.Errorf("verification FAILED at (%d,%d): %v != %v", i, j, res.Grid[i][j], want[i][j])
				}
			}
		}
		fmt.Fprintln(w, "verification   : distributed grid matches the sequential reference exactly")
	}

	if o.Metrics {
		fmt.Fprintln(w)
		fmt.Fprint(w, metrics.Render())
	}
	if rec != nil {
		if err := rec.Err(); err != nil {
			return err
		}
		if traceOut != nil {
			fmt.Fprintf(w, "cycle trace    : %s (%d events)\n", o.TraceFile, rec.Len())
		}
		if o.ChromeFile != "" {
			f, err := os.Create(o.ChromeFile)
			if err != nil {
				return err
			}
			if err := obs.WriteChromeTrace(f, rec.Events()); err != nil {
				_ = f.Close() // the write error is the one worth reporting
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Fprintf(w, "chrome trace   : %s (open in chrome://tracing)\n", o.ChromeFile)
		}
	}
	if srv != nil {
		fmt.Fprintln(w, "telemetry      : run complete, still serving (interrupt to exit)")
		srv.Wait()
	}
	return nil
}

// checkFaults refuses a clause of sched that the run would not apply as
// written: a rank outside [0, tasks), a partition cut that leaves every
// rank on one side, or a crash or slowdown from a cycle at or after iters.
func checkFaults(sched faults.Schedule, tasks, iters int) error {
	refuse := func(clause faults.Schedule, format string, args ...any) error {
		return fmt.Errorf("-faults clause %q: %s", clause, fmt.Sprintf(format, args...))
	}
	for _, c := range sched.Crashes {
		clause := faults.Schedule{Crashes: []faults.Crash{c}}
		if c.Rank >= tasks {
			return refuse(clause, "rank %d, but the run has %d tasks", c.Rank, tasks)
		}
		if c.Cycle >= iters {
			return refuse(clause, "cycle %d, but the run has %d iterations", c.Cycle, iters)
		}
	}
	for _, sl := range sched.Slows {
		clause := faults.Schedule{Slows: []faults.Slow{sl}}
		if sl.Rank >= tasks {
			return refuse(clause, "rank %d, but the run has %d tasks", sl.Rank, tasks)
		}
		if sl.FromCycle >= iters {
			return refuse(clause, "from cycle %d, but the run has %d iterations", sl.FromCycle, iters)
		}
	}
	for _, p := range sched.Parts {
		if p.Cut >= tasks {
			return refuse(faults.Schedule{Parts: []faults.Part{p}}, "cut at rank %d, but the run has %d tasks", p.Cut, tasks)
		}
	}
	return nil
}
