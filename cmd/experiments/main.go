// Command experiments regenerates every table and figure of the paper's
// evaluation on the simulated substrate, plus the ablations listed in
// DESIGN.md: the sections of experiments.Sections, in its order.
//
// Usage:
//
//	experiments [-experiment all|<key>] [-constants paper|fitted] [-n 600] [-j N]
//	            [-metrics] [-serve ADDR]
//
// -h lists the keys. table2 is followed by its residual table (E29), which
// "all" prints last.
//
//netpart:deterministic
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"netpart/internal/experiments"
	"netpart/internal/obs"
	"netpart/internal/obs/serve"
)

func main() {
	which := flag.String("experiment", "all", "experiment to run: "+strings.Join(keys(), ", "))
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
	if !slices.Contains(keys(), which) {
		return fmt.Errorf("unknown experiment %q", which)
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

	// Each section's wall time lands in a gauge keyed by its ID (e.g.
	// experiments.e2_ms).
	for _, s := range experiments.Sections(env, constants, n) {
		if which != "all" && which != s.Key {
			continue
		}
		fmt.Printf("\n=== %s ===\n", s.Title)
		start := time.Now()
		out, err := s.Run()
		if err != nil {
			return err
		}
		fmt.Print(out)
		metrics.Gauge("experiments." + s.ID + "_ms").Set(msSince(start))
		metrics.Counter("experiments.sections").Inc()
	}
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

// keys lists the -experiment values: "all", then each section's key once,
// in print order.
func keys() []string {
	keys := []string{"all"}
	for _, s := range experiments.Sections(nil, "", 0) {
		if !slices.Contains(keys, s.Key) {
			keys = append(keys, s.Key)
		}
	}
	return keys
}

// msSince returns the wall time since start in milliseconds.
func msSince(start time.Time) float64 {
	return float64(time.Since(start).Microseconds()) / 1000
}
