// Command experiments regenerates every table and figure of the paper's
// evaluation on the simulated substrate, plus the ablations listed in
// DESIGN.md.
//
// Usage:
//
//	experiments [-experiment all|table1|table2|fig1|fig2|fig3|costfit|overhead|gauss|ablations|faulttol]
//	            [-constants paper|fitted] [-n 600]
//
// table2 is followed by its residual table (E29), which "all" prints last.
//
//netpart:deterministic
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"netpart/internal/experiments"
	"netpart/internal/obs"
	"netpart/internal/obs/serve"
	"netpart/internal/stencil"
)

func main() {
	which := flag.String("experiment", "all", "experiment to run: all, table1, table2, fig1, fig2, fig3, costfit, overhead, gauss, ablations, adaptive, metasystem, startup, implselect, particles, selectioncost, noise, faulttol")
	constants := flag.String("constants", "paper", "cost table for table1: 'paper' (published constants) or 'fitted' (benchmarked from the simulator)")
	n := flag.Int("n", 600, "problem size for fig3 and gauss")
	jobs := flag.Int("j", runtime.GOMAXPROCS(0), "worker pool size for the parallel experiment engine (1 = serial); output is identical at any setting")
	showMetrics := flag.Bool("metrics", false, "print per-section wall-clock metrics at exit")
	serveAddr := flag.String("serve", "", `telemetry listen address (e.g. ":9090"): per-section metrics on /metrics, /metrics.json, /healthz, /debug/pprof/; keeps serving after the run until interrupted`)
	flag.Parse()

	if err := run(*which, *constants, *n, *jobs, *showMetrics, *serveAddr); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(which, constants string, n, jobs int, showMetrics bool, serveAddr string) error {
	if jobs < 1 {
		return fmt.Errorf("invalid -j %d: the worker pool needs at least one worker (use -j 1 for a serial run)", jobs)
	}
	var metrics *obs.Registry
	if showMetrics || serveAddr != "" {
		metrics = obs.NewRegistry()
	}
	var srv *serve.Server
	if serveAddr != "" {
		var err error
		srv, err = serve.Start(serveAddr, metrics)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Printf("telemetry: %s/metrics (also /metrics.json /healthz /debug/pprof/)\n", srv.URL())
	}
	runStart := time.Now()

	fmt.Println("Building environment (offline communication benchmarking)...")
	env, err := experiments.NewEnv()
	if err != nil {
		return err
	}
	env.Jobs = jobs
	metrics.Gauge("experiments.env_ms").Set(msSince(runStart))
	tbl := env.Paper
	if constants == "fitted" {
		tbl = env.Fitted
	}

	all := which == "all"
	did := false
	// Each section's wall time lands in a gauge keyed by its label's first
	// token (e.g. "E2:" -> experiments.e2_ms).
	var curSlug string
	var curStart time.Time
	flush := func() {
		if curSlug != "" {
			metrics.Gauge("experiments." + curSlug + "_ms").Set(msSince(curStart))
			metrics.Counter("experiments.sections").Inc()
		}
		curSlug = ""
	}
	section := func(title string) {
		flush()
		curSlug = strings.ToLower(strings.TrimSuffix(strings.Fields(title)[0], ":"))
		curStart = time.Now()
		fmt.Printf("\n=== %s ===\n", title)
		did = true
	}

	if all || which == "costfit" {
		section("E4: fitted communication cost constants (paper §6)")
		rows, router, err := experiments.CostFit(env)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderCostFit(rows, router))
	}
	if all || which == "table1" {
		section(fmt.Sprintf("E1: Table 1 — partitioning algorithm output (%s constants)", constants))
		rows, err := experiments.Table1(env, tbl)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderTable1(rows))
	}
	if all || which == "table2" {
		section("E2: Table 2 — measured elapsed times (ms, 10 iterations); * = measured min, p = predicted")
		rows, err := experiments.Table2(env)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderTable2(rows))
	}
	if all || which == "fig3" {
		section(fmt.Sprintf("E3: Fig. 3 — T_c vs processors (N=%d)", n))
		for _, v := range []stencil.Variant{stencil.STEN1, stencil.STEN2} {
			pts, err := experiments.Fig3(env, n, v)
			if err != nil {
				return err
			}
			fmt.Print(experiments.RenderFig3(pts, n, v))
		}
	}
	if all || which == "fig2" {
		section("E5: Fig. 2 — partition vector example")
		out, err := experiments.Fig2(env)
		if err != nil {
			return err
		}
		fmt.Print(out)
	}
	if all || which == "fig1" {
		section("E6: Fig. 1 — example heterogeneous network")
		out, err := experiments.Fig1()
		if err != nil {
			return err
		}
		fmt.Print(out)
	}
	if all || which == "overhead" {
		section("E7: partitioning overhead (Eq. 3/6 recomputations)")
		rows, err := experiments.Overhead(env)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderOverhead(rows))
	}
	if all || which == "gauss" {
		section(fmt.Sprintf("E8: Gaussian elimination with partial pivoting (N=%d)", n))
		g, err := experiments.Gauss(env, n)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderGauss(g))
	}
	if all || which == "ablations" {
		section("Ablations A1-A5")
		rows, err := experiments.Ablations(env)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderAblations(rows))
		section("Ablations A6-A7 (composition and search extensions)")
		ext, err := experiments.ExtendedAblations(env)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderAblations(ext))
	}
	if all || which == "adaptive" {
		section("E9: dynamic repartitioning with row migration (§7 future work)")
		r, err := experiments.Adaptive(env, 400, 80)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderAdaptive(r))
	}
	if all || which == "metasystem" {
		section("E10: metasystem with a multicomputer (§7 future work)")
		r, err := experiments.Metasystem(1200)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderMetasystem(r))
	}
	if all || which == "implselect" {
		section("E12: implementation selection — 1-D rows vs 2-D blocks")
		rows, err := experiments.ImplSelect(env)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderImplSelect(rows))
	}
	if all || which == "particles" {
		section("E13: particle simulation — data-dependent PDU weights")
		r, err := experiments.Particles(env)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderParticles(r))
	}
	if all || which == "selectioncost" {
		section("E14: selection cost — runtime partitioning vs benchmarked selection [1]")
		r, err := experiments.SelectionCost(env, 600)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderSelectionCost(r))
	}
	if all || which == "noise" {
		section("E15: noise sensitivity — the 'average case' caveat of §3.0")
		rows, err := experiments.Noise(env)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderNoise(rows))
	}
	if all || which == "faulttol" {
		section("E16: fault tolerance — node loss mid-run, recovery on the live runtime")
		r, err := experiments.FaultTol(env, 96, 30)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderFaultTol(r))
	}
	if all || which == "startup" {
		section("E11: initial-distribution cost (T_startup) and amortization")
		rows, err := experiments.Startup(env)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderStartup(rows))
	}
	if all || which == "table2" {
		section("E29: Table 2 residuals — predicted vs simulated T_comp, T_comm, T_c per cell")
		rows, err := residuals(env)
		if err != nil {
			return err
		}
		p, err := picks(env, rows)
		if err != nil {
			return err
		}
		held, err := experiments.HeldOutTwoRank(env)
		if err != nil {
			return err
		}
		fmt.Print(renderResiduals(rows, p, held))
	}
	if !did {
		return fmt.Errorf("unknown experiment %q", which)
	}
	flush()
	metrics.Gauge("experiments.total_ms").Set(msSince(runStart))
	if showMetrics {
		fmt.Println()
		fmt.Print(metrics.Render())
	}
	if srv != nil {
		fmt.Println("telemetry: run complete, still serving (interrupt to exit)")
		srv.Wait()
	}
	return nil
}

// msSince returns the wall time since start in milliseconds.
func msSince(start time.Time) float64 {
	return float64(time.Since(start).Microseconds()) / 1000
}
