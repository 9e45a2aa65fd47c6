// Command partition runs the runtime partitioning method: given a network
// model (the built-in paper testbed or a JSON spec) and an application's
// annotations, it prints the chosen processor configuration, the partition
// vector, and the cost estimate.
//
// Usage:
//
//	partition [-spec network.json] [-app sten1|sten2|gauss] [-n 600]
//	          [-constants paper|fitted] [-search bisect|scan|exhaustive|global]
//	          [-available sparc2=4,ipc=6]
//	          [-explain] [-trace out.jsonl] [-metrics]
//
//netpart:deterministic
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"netpart/internal/annspec"
	"netpart/internal/commbench"
	"netpart/internal/core"
	"netpart/internal/cost"
	"netpart/internal/gauss"
	"netpart/internal/model"
	"netpart/internal/obs"
	"netpart/internal/obs/serve"
	"netpart/internal/stencil"
	"netpart/internal/topo"
)

// runOptions collects the command's flags.
type runOptions struct {
	Spec      string // network spec JSON path ("" = paper testbed)
	App       string // sten1, sten2, or gauss
	AnnFile   string // annotation spec JSON path (overrides App)
	N         int
	Iters     int
	Constants string // paper or fitted
	Search    string // bisect, scan, or exhaustive
	Available string // availability overrides, e.g. "sparc2=4,ipc=6"
	CostFile  string // fitted cost table JSON (overrides Constants)
	Explain   bool   // print the per-cluster T_c(p) curves and decision path
	TraceFile string // JSONL search-trace output path ("" = off)
	Metrics   bool   // print the search metrics summary
	Serve     string // telemetry listen address ("" = off)
}

func main() {
	var o runOptions
	flag.StringVar(&o.Spec, "spec", "", "network spec JSON (default: the paper's Sparc2+IPC testbed)")
	flag.StringVar(&o.App, "app", "sten1", "application: sten1, sten2, or gauss")
	flag.StringVar(&o.AnnFile, "annspec", "", "compile annotations from a JSON spec file instead of -app (see specs/)")
	flag.IntVar(&o.N, "n", 600, "problem size N")
	flag.IntVar(&o.Iters, "iters", 10, "iteration count (stencil)")
	flag.StringVar(&o.Constants, "constants", "fitted", "cost table: 'fitted' (benchmark the simulated network) or 'paper' (published constants; paper testbed only)")
	flag.StringVar(&o.CostFile, "costs", "", "load a fitted cost table from JSON (written by commbench -o) instead of -constants")
	flag.StringVar(&o.Search, "search", "bisect", "search strategy: bisect, scan, exhaustive, or global")
	flag.StringVar(&o.Available, "available", "", "override availability, e.g. sparc2=4,ipc=6")
	flag.BoolVar(&o.Explain, "explain", false, "explain the decision: per-cluster T_c(p) curves, search path, winner breakdown")
	flag.StringVar(&o.TraceFile, "trace", "", "write the search trace (one JSON event per line) to this file")
	flag.BoolVar(&o.Metrics, "metrics", false, "print search metrics (candidates, memo hits, T_c distribution)")
	flag.StringVar(&o.Serve, "serve", "", `telemetry listen address (e.g. ":9090"): search metrics on /metrics, /metrics.json, /healthz, /debug/pprof/; keeps serving after the search until interrupted`)
	flag.Parse()

	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "partition:", err)
		os.Exit(1)
	}
}

func run(o runOptions) error {
	// With -serve the search metrics registry is exposed over HTTP; start
	// before the search so /debug/pprof/ can profile it.
	var metrics *obs.Registry
	var srv *serve.Server
	if o.Metrics || o.Serve != "" {
		metrics = obs.NewRegistry()
	}
	if o.Serve != "" {
		var err error
		srv, err = serve.Start(o.Serve, metrics)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Printf("telemetry          : %s/metrics (also /metrics.json /healthz /debug/pprof/)\n", srv.URL())
	}

	net := model.PaperTestbed()
	if o.Spec != "" {
		f, err := os.Open(o.Spec)
		if err != nil {
			return err
		}
		defer f.Close()
		net, err = model.ReadSpec(f)
		if err != nil {
			return err
		}
	}
	if o.Available != "" {
		for _, kv := range strings.Split(o.Available, ",") {
			parts := strings.SplitN(kv, "=", 2)
			if len(parts) != 2 {
				return fmt.Errorf("bad -available entry %q", kv)
			}
			c := net.Cluster(parts[0])
			if c == nil {
				return fmt.Errorf("unknown cluster %q", parts[0])
			}
			v, err := strconv.Atoi(parts[1])
			if err != nil {
				return err
			}
			c.Available = v
		}
		if err := net.Validate(); err != nil {
			return err
		}
	}

	var ann *core.Annotations
	n := o.N
	if o.AnnFile != "" {
		f, err := os.Open(o.AnnFile)
		if err != nil {
			return err
		}
		compiled, err := annspec.CompileReader(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		ann = compiled
		n = ann.NumPDUs()
	}
	switch {
	case ann != nil:
		// compiled from -annspec
	default:
		switch o.App {
		case "sten1":
			ann = stencil.Annotations(n, stencil.STEN1, o.Iters)
		case "sten2":
			ann = stencil.Annotations(n, stencil.STEN2, o.Iters)
		case "gauss":
			ann = gauss.Annotations(n)
		default:
			return fmt.Errorf("unknown app %q", o.App)
		}
	}

	var tbl *cost.Table
	constants := o.Constants
	if o.CostFile != "" {
		f, err := os.Open(o.CostFile)
		if err != nil {
			return err
		}
		loaded, err := cost.ReadTable(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		tbl = loaded
		constants = "file"
	}
	switch constants {
	case "file":
		// loaded above
	case "paper":
		tbl = cost.PaperTable()
	case "fitted":
		fmt.Println("benchmarking communication on the simulated network...")
		res, err := commbench.Run(net, []topo.Topology{topo.OneD{}, topo.Broadcast{}}, commbench.DefaultGrid())
		if err != nil {
			return err
		}
		tbl = res.Table
	default:
		return fmt.Errorf("unknown constants %q", constants)
	}

	est, err := core.NewEstimator(net, tbl, ann)
	if err != nil {
		return err
	}

	// Observability: an in-memory trace backs -explain and -metrics; a sink
	// observer streams the same decision record to -trace as JSONL.
	var observers core.MultiObserver
	var searchTrace *core.SearchTrace
	if o.Explain || metrics != nil {
		searchTrace = &core.SearchTrace{}
		observers = append(observers, searchTrace)
	}
	var rec *obs.Recorder
	if o.TraceFile != "" {
		f, err := os.Create(o.TraceFile)
		if err != nil {
			return err
		}
		defer f.Close()
		rec = obs.NewRecorder(f)
		observers = append(observers, core.SinkObserver{Sink: rec})
	}
	if len(observers) > 0 {
		est.Observer = observers
	}

	var res core.Result
	switch o.Search {
	case "bisect":
		res, err = core.Partition(est)
	case "scan":
		res, err = core.PartitionLinear(est)
	case "exhaustive":
		res, err = core.PartitionExhaustive(est)
	case "global":
		res, err = core.PartitionGlobal(est)
	default:
		return fmt.Errorf("unknown search %q", o.Search)
	}
	if err != nil {
		return err
	}

	fmt.Printf("application        : %s (N=%d, %d PDUs)\n", ann.Name, n, ann.NumPDUs())
	fmt.Printf("configuration      : %v  (%d processors)\n", res.Config, res.Config.Total())
	fmt.Printf("partition vector   : %v\n", res.Vector)
	fmt.Printf("estimated T_c      : %.3f ms/cycle\n", res.TcMs)
	fmt.Printf("  T_comp %.3f + T_comm %.3f - T_overlap %.3f\n", res.TcompMs, res.TcommMs, res.ToverlapMs)
	if ann.Cycles > 0 {
		fmt.Printf("estimated elapsed  : %.1f ms (%d cycles)\n", res.ElapsedMs(ann.Cycles), ann.Cycles)
	}
	fmt.Printf("search evaluations : %d (Eq. 3/6 recomputations)\n", res.Evaluations)

	if o.Explain {
		fmt.Println()
		fmt.Print(searchTrace.Explain())
	}
	if metrics != nil {
		searchMetrics(searchTrace, metrics)
	}
	if o.Metrics {
		fmt.Println()
		fmt.Print(metrics.Render())
	}
	if rec != nil {
		if err := rec.Err(); err != nil {
			return err
		}
		fmt.Printf("\nsearch trace       : %s (%d events)\n", o.TraceFile, rec.Len())
	}
	if srv != nil {
		fmt.Println("telemetry          : search complete, still serving (interrupt to exit)")
		srv.Wait()
	}
	return nil
}

// searchMetrics folds a recorded search trace into the given metrics
// registry: candidate counts, memo hits, bisection probes, and the T_c
// distribution over evaluated candidates. Filling a caller-provided
// registry lets -serve expose the same instruments it scrapes.
func searchMetrics(t *core.SearchTrace, m *obs.Registry) {
	for _, c := range t.Candidates {
		if c.Cached {
			m.Counter("search.memo_hits").Inc()
			continue
		}
		m.Counter("search.candidates").Inc()
		m.Histogram("search.tc_ms").Observe(c.TcMs)
	}
	for _, ev := range t.Events {
		switch ev.Kind {
		case core.EvBisectStep:
			m.Counter("search.bisect_probes").Inc()
		case core.EvClusterOpen:
			m.Counter("search.clusters_opened").Inc()
		}
	}
	if w, ok := t.Winner(); ok {
		m.Gauge("search.winner_tc_ms").Set(w.TcMs)
	}
}
