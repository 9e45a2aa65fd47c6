// Command stencil runs the paper's evaluation application end to end:
// partition (or take an explicit configuration), execute STEN-1/STEN-2 on
// the simulated network or over real UDP message passing, verify the
// result against the sequential reference, and report elapsed time.
//
// Usage:
//
//	stencil [-n 600] [-variant sten1|sten2] [-iters 10]
//	        [-p1 -1] [-p2 -1]            explicit configuration (-1 = auto-partition)
//	        [-runtime sim|live]          simulated network or real goroutines+UDP
//	        [-verify]                    check against the sequential solver
//	        [-metrics] [-trace out.jsonl] [-chrome out.json]
//	        [-faults "crash:3@12;drop:0.05"] [-faultseed 1] [-ckpt 8]
//	        [-repart] [-repart-every 4] [-repart-horizon 32]
//
// The sim runtime is stencil.RunSimAdaptive, whose options carry every sim
// mode (instrumentation, -mode converge as Tol, -mode adaptive as
// RebalanceEvery + Slowdown, -faults as Injector); the live runtime is
// stencil.RunLiveMonitored, RunLiveAdaptive with -repart, or RunLiveFT with
// -faults. All of them execute one cycle driver, so sim and live run the
// same exchange protocol.
//
// With -faults, the sim runtime injects packet faults below the simulated
// reliability layer, and the live runtime switches to the fault-tolerant
// protocol (RunLiveFT): buddy checkpointing every -ckpt cycles, failure
// detection, and recovery by re-running the paper's partitioning algorithm
// over the survivors.
//
// With -repart, the live runtime repartitions continuously: the drift
// monitor's events (sustained deviation from the predicted T_c) trigger an
// incremental re-plan through internal/repart — migration cost is an
// explicit objective term, amortized over -repart-horizon cycles — and the
// chosen rows migrate between cycles. Without a drift monitor (no -metrics
// or explicit -p1/-p2), the -repart-every interval fallback drives the
// rounds instead.
//
//netpart:deterministic
package main

import (
	"flag"
	"fmt"
	"os"
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
	"netpart/internal/spmd"
	"netpart/internal/stencil"
	"netpart/internal/topo"
	"netpart/internal/trace"
)

// spmdReport aliases the report type shared by the sim modes.
type spmdReport = spmd.Report

// runOptions collects the command's flags.
type runOptions struct {
	N             int
	Variant       string // sten1 or sten2
	Iters         int
	P1, P2        int    // explicit configuration (-1 = auto-partition)
	Runtime       string // sim or live
	Verify        bool
	Mode          string // fixed, converge, or adaptive
	Tol           float64
	SlowRank      int
	SlowFactor    float64
	Metrics       bool   // print the runtime metrics table at exit
	TraceFile     string // per-cycle span events as JSONL ("" = off)
	ChromeFile    string // chrome://tracing export of the same spans ("" = off)
	Faults        string // fault schedule ("" = none)
	FaultSeed     uint64 // deterministic injector seed
	Ckpt          int    // checkpoint period for the fault-tolerant live runtime
	Serve         string // telemetry listen address ("" = off)
	DriftPct      float64
	Repart        bool // drift-triggered continuous repartitioning (live runtime)
	RepartEvery   int  // interval-fallback rebalance period (cycles)
	RepartHorizon int  // cycles over which a migration must amortize
}

func main() {
	var o runOptions
	flag.IntVar(&o.N, "n", 600, "grid size N (N×N grid, N row PDUs)")
	flag.StringVar(&o.Variant, "variant", "sten2", "sten1 (no overlap) or sten2 (overlapped)")
	flag.IntVar(&o.Iters, "iters", 10, "Jacobi iterations")
	flag.IntVar(&o.P1, "p1", -1, "Sparc2 processors (-1 = choose via the partitioning method)")
	flag.IntVar(&o.P2, "p2", -1, "IPC processors (-1 = choose via the partitioning method)")
	flag.StringVar(&o.Runtime, "runtime", "sim", "sim (virtual time) or live (goroutines + UDP)")
	flag.BoolVar(&o.Verify, "verify", true, "verify against the sequential reference")
	flag.StringVar(&o.Mode, "mode", "fixed", "sim modes: fixed iterations, converge (run to -tol), adaptive (dynamic repartitioning under -slowrank load)")
	flag.Float64Var(&o.Tol, "tol", 0.01, "convergence tolerance for -mode converge")
	flag.IntVar(&o.SlowRank, "slowrank", 1, "rank slowed in -mode adaptive")
	flag.Float64Var(&o.SlowFactor, "slowfactor", 4, "slowdown factor in -mode adaptive")
	flag.BoolVar(&o.Metrics, "metrics", false, "print per-cycle runtime metrics (cycle/exchange timings, messages, bytes)")
	flag.StringVar(&o.TraceFile, "trace", "", "write per-cycle span events (one JSON object per line) to this file")
	flag.StringVar(&o.ChromeFile, "chrome", "", "write a chrome://tracing trace-event file of the run's cycles")
	flag.StringVar(&o.Faults, "faults", "", `fault schedule, e.g. "crash:3@12;drop:0.05;delay:0.1,2;part:6@100-200"`)
	flag.Uint64Var(&o.FaultSeed, "faultseed", 1, "seed for the deterministic fault injector")
	flag.IntVar(&o.Ckpt, "ckpt", 8, "checkpoint period (cycles) for the fault-tolerant live runtime")
	flag.StringVar(&o.Serve, "serve", "", `telemetry listen address (e.g. ":9090", ":0" picks a port): /metrics, /metrics.json, /healthz, /debug/pprof/; the process keeps serving after the run until interrupted`)
	flag.Float64Var(&o.DriftPct, "driftpct", drift.DefaultThresholdPct, "drift-event threshold: |EWMA deviation| of measured vs predicted per-cycle time, percent")
	flag.BoolVar(&o.Repart, "repart", false, "live runtime: continuous repartitioning — drift events (or the -repart-every fallback) trigger an incremental re-plan and row migration")
	flag.IntVar(&o.RepartEvery, "repart-every", 4, "interval fallback: re-plan every this many cycles even without a drift event (0 = drift-only)")
	flag.IntVar(&o.RepartHorizon, "repart-horizon", repart.DefaultHorizonCycles, "cycles a migration must amortize over in the planner's T_mig objective term")
	flag.Parse()

	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "stencil:", err)
		os.Exit(1)
	}
}

func run(o runOptions) error {
	var variant stencil.Variant
	switch o.Variant {
	case "sten1":
		variant = stencil.STEN1
	case "sten2":
		variant = stencil.STEN2
	default:
		return fmt.Errorf("unknown variant %q", o.Variant)
	}
	if o.Repart && o.Runtime != "live" {
		return fmt.Errorf("-repart needs -runtime live (the sim runtime has -mode adaptive)")
	}
	if o.Repart && o.Faults != "" {
		return fmt.Errorf("-repart and -faults are exclusive: the fault-tolerant runtime repartitions on recovery")
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
		fmt.Printf("telemetry      : %s/metrics (also /metrics.json /healthz /debug/pprof/)\n", srv.URL())
	}

	n, iters := o.N, o.Iters
	var vec core.Vector
	var predictedTcMs, predictedTcommMs float64
	chosen := struct{ p1, p2 int }{o.P1, o.P2}
	if chosen.p1 < 0 || chosen.p2 < 0 {
		fmt.Println("partitioning: benchmarking communication and searching configurations...")
		bench, err := commbench.Run(net, []topo.Topology{topo.OneD{}}, commbench.DefaultGrid())
		if err != nil {
			return err
		}
		est, err := core.NewEstimator(net, bench.Table, stencil.Annotations(n, variant, iters))
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
		predictedTcommMs = res.TcommMs
		fmt.Printf("partitioning: chose %v, predicted T_c %.3f ms/cycle (%d evaluations)\n",
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
	fmt.Printf("configuration  : sparc2:%d ipc:%d\n", chosen.p1, chosen.p2)
	fmt.Printf("partition vec  : %v\n", vec)

	// Drift monitor: with estimator predictions in hand, subscribe to the
	// runtimes' per-cycle measurements and flag sustained deviation from
	// the predicted T_c (gauges drift.pct{task=...}, events on -trace).
	// With -repart, each drift event also latches the repartitioning
	// trigger consumed by the live adaptive runtime's next round.
	var repartTrig *repart.DriftTrigger
	var cycleSink obs.CycleSink
	if metrics != nil && predictedTcMs > 0 {
		driftCfg := drift.Config{
			PredCycleMs:  predictedTcMs,
			PredCommMs:   predictedTcommMs,
			ThresholdPct: o.DriftPct,
		}
		if o.Repart {
			repartTrig = &repart.DriftTrigger{}
			driftCfg.Notify = func(drift.Event) { repartTrig.Fire() }
		}
		cycleSink = drift.New(driftCfg, metrics, rec)
	}

	verify := o.Verify
	var grid [][]float64
	switch o.Runtime {
	case "sim":
		var rep spmdReport
		switch o.Mode {
		case "fixed":
			sopts := stencil.AdaptiveOptions{Metrics: metrics, Trace: rec, Cycles: cycleSink}
			if o.Faults != "" {
				sched, err := faults.Parse(o.Faults)
				if err != nil {
					return err
				}
				sched = sched.Sanitize(chosen.p1+chosen.p2, iters)
				if len(sched.Crashes) > 0 {
					return fmt.Errorf("crash faults need the fault-tolerant live runtime (-runtime live)")
				}
				fmt.Printf("fault schedule : %s (seed %d)\n", sched.String(), o.FaultSeed)
				sopts.Injector, sopts.RetransmitMs = faults.NewEngine(sched, o.FaultSeed, metrics), 10
			}
			res, err := stencil.RunSimAdaptive(net, cfgCost, vec, variant, n, iters, sopts)
			if err != nil {
				return err
			}
			elapsedMs := res.ElapsedMs
			grid, rep = res.Grid, res.Report
			fmt.Printf("simulated time : %.1f ms (%d iterations, %s)\n", elapsedMs, iters, variant)
			if predictedTcMs > 0 && iters > 0 {
				// Estimate-vs-measured drift: predicted per-cycle cost
				// against the simulated per-cycle average.
				measured := elapsedMs / float64(iters)
				drift := trace.DeviationPct(measured, predictedTcMs)
				metrics.Gauge("stencil.drift_pct").Set(drift)
				fmt.Printf("estimate drift : predicted %.3f vs measured %.3f ms/cycle (%+.1f%%)\n",
					predictedTcMs, measured, drift)
			}
		case "converge":
			res, err := stencil.RunSimAdaptive(net, cfgCost, vec, variant, n, iters*100,
				stencil.AdaptiveOptions{Tol: o.Tol})
			if err != nil {
				return err
			}
			grid = res.Grid
			rep = res.Report
			verify = false // iteration count is tolerance driven
			fmt.Printf("simulated time : %.1f ms (converged to Δ≤%g in %d iterations, %s)\n",
				res.ElapsedMs, o.Tol, res.Iterations, variant)
			wantGrid, wantIters, _ := stencil.SequentialUntil(stencil.NewGrid(n), o.Tol, iters*100)
			if res.Iterations != wantIters {
				return fmt.Errorf("converged in %d iterations, sequential needs %d", res.Iterations, wantIters)
			}
			for i := range wantGrid {
				for j := range wantGrid[i] {
					if grid[i][j] != wantGrid[i][j] {
						return fmt.Errorf("verification FAILED at (%d,%d)", i, j)
					}
				}
			}
			fmt.Println("verification   : converged grid matches the sequential reference exactly")
		case "adaptive":
			slow := func(rank, iter int) float64 {
				if rank == o.SlowRank && iter >= iters/8 {
					return o.SlowFactor
				}
				return 1
			}
			static, err := stencil.RunSimAdaptive(net, cfgCost, vec, variant, n, iters,
				stencil.AdaptiveOptions{Slowdown: slow})
			if err != nil {
				return err
			}
			res, err := stencil.RunSimAdaptive(net, cfgCost, vec, variant, n, iters,
				stencil.AdaptiveOptions{Slowdown: slow, RebalanceEvery: iters / 8,
					Metrics: metrics, Trace: rec})
			if err != nil {
				return err
			}
			grid = res.Grid
			rep = res.Report
			fmt.Printf("simulated time : static %.1f ms vs adaptive %.1f ms (%.2fx; %d rebalances, %d rows migrated)\n",
				static.ElapsedMs, res.ElapsedMs, static.ElapsedMs/res.ElapsedMs, res.Rebalances, res.MigratedRows)
			fmt.Printf("final vector   : %v\n", res.FinalVector)
		default:
			return fmt.Errorf("unknown mode %q", o.Mode)
		}
		for _, s := range rep.Segments {
			fmt.Printf("  segment %-8s %6d msgs  %8d bytes  busy %.1f ms\n", s.Name, s.Messages, s.Bytes, s.BusyMs)
		}
	case "live":
		tasks := chosen.p1 + chosen.p2
		worldOpts := []mmps.Option{mmps.WithRecvTimeout(60 * time.Second), mmps.WithMetrics(metrics)}
		var eng *faults.Engine
		if o.Faults != "" {
			sched, err := faults.Parse(o.Faults)
			if err != nil {
				return err
			}
			sched = sched.Sanitize(tasks, iters)
			eng = faults.NewEngine(sched, o.FaultSeed, metrics)
			worldOpts = append(worldOpts, mmps.WithInjector(eng))
			fmt.Printf("fault schedule : %s (seed %d)\n", sched.String(), o.FaultSeed)
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
		// Emulate the 2x slower IPCs by doubling their row work.
		factors := make([]int, tasks)
		for i := range factors {
			factors[i] = 1
			if i >= chosen.p1 {
				factors[i] = 2
			}
		}
		if eng != nil {
			// Fault-tolerant runtime: buddy checkpoints, detection, and
			// recovery by re-partitioning over the survivors.
			placement := make([]string, 0, tasks)
			for i := 0; i < chosen.p1; i++ {
				placement = append(placement, model.Sparc2Cluster)
			}
			for i := 0; i < chosen.p2; i++ {
				placement = append(placement, model.IPCCluster)
			}
			res, err := stencil.RunLiveFT(world, vec, variant, n, iters, stencil.FTOptions{
				Injector:        eng,
				Repartition:     stencil.Repartitioner(net, cost.PaperTable(), variant, n, iters, placement),
				CheckpointEvery: o.Ckpt,
				WorkFactor:      factors,
				Metrics:         metrics,
				Trace:           rec,
				Cycles:          cycleSink,
			})
			if err != nil {
				return err
			}
			grid = res.Grid
			fmt.Printf("wall-clock time: %v (%d iterations, %s, %d tasks over UDP, fault-tolerant)\n",
				res.Elapsed, iters, variant, tasks)
			fmt.Printf("fault tolerance: %d recoveries, failed ranks %v\n", res.Recoveries, res.Failed)
			for _, ev := range res.Events {
				fmt.Printf("  epoch %d: dead %v, rolled back to cycle %d, recovery latency %.1f ms, vector %v\n",
					ev.Epoch, ev.Dead, ev.RollbackCycle, ev.LatencyMs, ev.Vector)
			}
		} else if o.Repart {
			// Continuous repartitioning: drift events (when the monitor is
			// on) or the interval fallback trigger an incremental re-plan
			// whose objective prices row migration with the paper's Eq. 1
			// constants, followed by a real row migration between cycles.
			migParams, err := cost.PaperTable().Comm(model.Sparc2Cluster, "1-D")
			if err != nil {
				return err
			}
			lopts := stencil.LiveAdaptiveOptions{
				RebalanceEvery: o.RepartEvery,
				Planner: repart.PlannerConfig{
					Mig:           cost.MigrationFromParams(migParams, float64(stencil.BytesPerPoint*n)),
					HorizonCycles: o.RepartHorizon,
				},
				WorkFactor: factors,
				Metrics:    metrics,
				Trace:      rec,
				Cycles:     cycleSink,
			}
			if repartTrig != nil {
				lopts.Trigger = repartTrig
			}
			res, err := stencil.RunLiveAdaptive(world, vec, variant, n, iters, lopts)
			if err != nil {
				return err
			}
			grid = res.Grid
			fmt.Printf("wall-clock time: %v (%d iterations, %s, %d tasks over UDP, continuous repartitioning)\n",
				res.Elapsed, iters, variant, tasks)
			fmt.Printf("repartitioning : %d rounds, %d plans applied, %d rows migrated, final vector %v\n",
				len(res.Plans), res.Rebalances, res.MigratedRows, res.FinalVector)
			for _, p := range res.Plans {
				if p.Changed() {
					fmt.Printf("  %s\n", p)
				}
			}
		} else {
			res, err := stencil.RunLiveMonitored(world, vec, variant, n, iters, factors, metrics, rec, cycleSink)
			if err != nil {
				return err
			}
			grid = res.Grid
			fmt.Printf("wall-clock time: %v (%d iterations, %s, %d tasks over UDP)\n",
				res.Elapsed, iters, variant, tasks)
		}
	default:
		return fmt.Errorf("unknown runtime %q", o.Runtime)
	}

	if verify {
		want := stencil.Sequential(stencil.NewGrid(n), iters)
		for i := range want {
			for j := range want[i] {
				if grid[i][j] != want[i][j] {
					return fmt.Errorf("verification FAILED at (%d,%d): %v != %v", i, j, grid[i][j], want[i][j])
				}
			}
		}
		fmt.Println("verification   : distributed grid matches the sequential reference exactly")
	}

	if o.Metrics {
		fmt.Println()
		fmt.Print(metrics.Render())
	}
	if rec != nil {
		if err := rec.Err(); err != nil {
			return err
		}
		if traceOut != nil {
			fmt.Printf("cycle trace    : %s (%d events)\n", o.TraceFile, rec.Len())
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
			fmt.Printf("chrome trace   : %s (open in chrome://tracing)\n", o.ChromeFile)
		}
	}
	if srv != nil {
		fmt.Println("telemetry      : run complete, still serving (interrupt to exit)")
		srv.Wait()
	}
	return nil
}
