// Command commbench runs the paper's offline communication benchmarking
// step on the simulated network: topology-specific communication programs
// are executed over a grid of message sizes and processor counts, Eq. 1
// cost functions are fitted per (cluster, topology), and the resulting
// constants are printed next to the paper's published ones.
//
// Usage:
//
//	commbench [-spec network.json] [-topologies 1-D,broadcast] [-cycles 10]
//
//netpart:deterministic
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"netpart/internal/commbench"
	"netpart/internal/cost"
	"netpart/internal/model"
	"netpart/internal/obs"
	"netpart/internal/obs/serve"
	"netpart/internal/topo"
)

func main() {
	spec := flag.String("spec", "", "network spec JSON (default: the paper's Sparc2+IPC testbed)")
	topoList := flag.String("topologies", "1-D,ring,broadcast", "comma-separated topology names")
	cycles := flag.Int("cycles", 10, "communication cycles per Eq. 1 measurement (the stagger program always runs commbench.StaggerCycles)")
	out := flag.String("o", "", "write the fitted cost table as JSON to this file (readable by partition -costs)")
	showMetrics := flag.Bool("metrics", false, "print benchmarking metrics (fits, samples, R² distribution) at exit")
	serveAddr := flag.String("serve", "", `telemetry listen address (e.g. ":9090"): fit metrics on /metrics, /metrics.json, /healthz, /debug/pprof/; keeps serving after the benchmark until interrupted`)
	flag.Parse()

	if err := run(*spec, *topoList, *cycles, *out, *showMetrics, *serveAddr); err != nil {
		fmt.Fprintln(os.Stderr, "commbench:", err)
		os.Exit(1)
	}
}

func run(spec, topoList string, cycles int, out string, showMetrics bool, serveAddr string) error {
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

	net := model.PaperTestbed()
	if spec != "" {
		f, err := os.Open(spec)
		if err != nil {
			return err
		}
		defer f.Close()
		net, err = model.ReadSpec(f)
		if err != nil {
			return err
		}
	}
	var tops []topo.Topology
	for _, name := range strings.Split(topoList, ",") {
		tp, err := topo.ByName(strings.TrimSpace(name))
		if err != nil {
			return err
		}
		tops = append(tops, tp)
	}
	grid := commbench.DefaultGrid()
	grid.Cycles = cycles
	benchStart := time.Now()
	res, err := commbench.Run(net, tops, grid)
	if err != nil {
		return err
	}
	if metrics != nil {
		metrics.Gauge("commbench.elapsed_ms").Set(float64(time.Since(benchStart).Microseconds()) / 1000)
		for _, f := range res.Fits {
			metrics.Counter("commbench.fits").Inc()
			metrics.Counter("commbench.samples").Add(int64(f.Samples))
			metrics.Histogram("commbench.fit_r2").Observe(f.Quality.R2)
		}
		for _, f := range res.Staggers {
			metrics.Counter("commbench.stagger_fits").Inc()
			metrics.Counter("commbench.samples").Add(int64(f.Samples))
			metrics.Histogram("commbench.stagger_r2").Observe(f.Quality.R2)
		}
	}

	fmt.Println("Fitted Eq. 1 constants: T = c1 + c2·p + b·(c3 + c4·p)  (ms, bytes)")
	fmt.Println()
	paper := cost.PaperTable()
	for _, f := range res.Fits {
		fmt.Printf("  T_comm[%s, %s](b,p) = %s   (R²=%.4f, %d samples)\n",
			f.Cluster, f.Topology, f.Params, f.Quality.R2, f.Samples)
		if p, err := paper.Comm(f.Cluster, f.Topology); err == nil {
			fmt.Printf("      paper §6:            %s\n", p)
		}
	}
	if len(res.Staggers) > 0 {
		fmt.Println()
		fmt.Printf("Measured STEN-1 stagger (cycle less its %g ms of compute): Eq. 1 over p ≥ 3, a line at p = 2\n", commbench.StaggerComputeMs)
		fmt.Println()
	}
	for _, f := range res.Staggers {
		if f.With != "" {
			fmt.Printf("  X[%s, %s](b) = %.4g + %.4g·b at one rank each   (R²=%.4f, %d samples)\n",
				f.Cluster, f.With, f.Stagger.Two.FixedMs, f.Stagger.Two.Ms, f.Quality.R2, f.Samples)
			continue
		}
		fmt.Printf("  X[%s](b,p) = %s   (R²=%.4f, %d samples)\n", f.Cluster, f.Stagger.Many, f.Quality.R2, f.Samples)
		fmt.Printf("      p = 2:            %.4g + %.4g·b\n", f.Stagger.Two.FixedMs, f.Stagger.Two.Ms)
	}
	fmt.Println()
	for _, pair := range sortedPairs(res.Router) {
		fmt.Printf("  T_router[%s, %s](b) = %.6f·b ms   (paper §6: 0.0006·b)\n", pair[0], pair[1], res.Router[pair].Ms)
	}
	for _, pair := range sortedPairs(res.Coerce) {
		fmt.Printf("  T_coerce[%s, %s](b) = %.6f·b ms\n", pair[0], pair[1], res.Coerce[pair].Ms)
	}
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := cost.WriteTable(f, res.Table); err != nil {
			return err
		}
		fmt.Printf("\nwrote fitted cost table to %s\n", out)
	}
	if showMetrics {
		fmt.Println()
		fmt.Print(metrics.Render())
	}
	if srv != nil {
		fmt.Println("telemetry: benchmark complete, still serving (interrupt to exit)")
		srv.Wait()
	}
	return nil
}

// sortedPairs returns the map's cluster pairs in lexicographic order so the
// fitted-constants listing is byte-identical across runs.
func sortedPairs(m map[[2]string]cost.PerByte) [][2]string {
	pairs := make([][2]string, 0, len(m))
	for p := range m {
		pairs = append(pairs, p)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i][0] != pairs[j][0] {
			return pairs[i][0] < pairs[j][0]
		}
		return pairs[i][1] < pairs[j][1]
	})
	return pairs
}
