// Command benchmark is netpart's one benchmark: five seeded workloads, each
// taken through the product's three stages — decide (core.Partition),
// check the decision in simulation (stencil.RunSim and the experiments
// built on it), execute live (stencil.RunLive over mmps) — with every
// output verified. End-to-end metrics are measured with tracing off; a
// second, traced run records spans around every call into a layer and
// yields the per-layer metrics and the ledgers. README.md explains the
// workloads, the metrics and how they interact.
//
//	bash benchmark/run.sh                      all workloads, full report
//	bash benchmark/run.sh -workload live-kernel -seed 7 -seconds 12 -trace 0
//	bash benchmark/run.sh -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

func main() {
	var (
		workload = flag.String("workload", "", "run one workload and print one JSON result line (the driver's mode); empty runs all five and prints the full report")
		seed     = flag.Int64("seed", DefaultSeed, "input seed; the same seed gives the same inputs")
		secs     = flag.Float64("seconds", runSeconds, "seconds one run measures for")
		trace    = flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics of a traced run")
		scaleArg = flag.String("scale", "full", "full, or tiny for a smoke test")
		compare  = flag.Bool("compare", false, "compare two result files or directories of them: -compare a b")
		outArg   = flag.String("out", "", "directory for traces and the result file (default benchmark/out)")
		manifest = flag.Bool("manifest", false, "print BENCHMARK.json as metrics.go declares it, and exit")
	)
	flag.Parse()
	if *manifest {
		if err := printManifest(); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*workload, *seed, *secs, *trace, *scaleArg, *compare, *outArg, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, secs float64, trace int, scaleArg string, compare bool, outDir string, args []string) error {
	if compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare takes two result files or directories")
		}
		return compareSets(args[0], args[1])
	}
	// P = 4 ranks run on at most two OS threads, whatever the box has, so
	// that the live numbers mean the same thing everywhere.
	if runtime.NumCPU() < 2 {
		runtime.GOMAXPROCS(1)
	} else {
		runtime.GOMAXPROCS(2)
	}
	sc := fullScale
	switch scaleArg {
	case "full":
	case "tiny":
		sc = tinyScale
	default:
		return fmt.Errorf("unknown -scale %q", scaleArg)
	}
	root, err := findRoot(".")
	if err != nil {
		return err
	}
	if outDir == "" {
		outDir = filepath.Join(root, "benchmark", "out")
	}
	if workload != "" {
		return runForDriver(workload, seed, secs, trace, sc, root, outDir)
	}
	rep, err := fullReport(seed, secs, sc, root, outDir)
	if err != nil {
		return err
	}
	if failed := rep.failures(); failed > 0 {
		return fmt.Errorf("%d operations failed verification", failed)
	}
	return nil
}

// driverLine is the one JSON object the driver reads from the last line of
// standard output.
type driverLine struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]driverMetric `json:"metrics"`
}

type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func runForDriver(workload string, seed int64, secs float64, trace int, sc scale, root, outDir string) error {
	w := workloadByName(workload)
	if w == nil {
		return fmt.Errorf("unknown workload %q", workload)
	}
	var res *runResult
	var defs []metricDef
	var err error
	if trace == 0 {
		defs = endToEnd
		res, err = runUntraced(w, seed, secs, sc, root)
	} else {
		defs = perLayer
		res, err = runTraced(w, seed, secs, sc, root, outDir)
	}
	if err != nil {
		return err
	}
	fmt.Printf("workload %s seed %d inputs %s wall %.1fs\n", w.Name, seed, res.hash, res.wall.Seconds())
	printMetrics(os.Stdout, res.metrics, defs)
	printLedgers(os.Stdout, res.ledgers)
	line := driverLine{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]driverMetric{}}
	for _, d := range defs {
		m, ok := res.metrics[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		line.Metrics[d.Name] = driverMetric{Value: m.Value, Unit: d.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	if res.failed > 0 {
		return fmt.Errorf("%d of %d operations failed verification", res.failed, res.attempted)
	}
	return nil
}

// metricOut is one metric in the result file.
type metricOut struct {
	summary
	Unit     string  `json:"unit"`
	Kind     string  `json:"kind"`
	Better   string  `json:"better"`
	Bound    float64 `json:"bound,omitempty"`
	AbsBound float64 `json:"abs_bound_pts,omitempty"`
}

type ledgerOut struct {
	Title       string             `json:"title"`
	Total       float64            `json:"total"`
	Layers      map[string]float64 `json:"layers"`
	Unaccounted float64            `json:"unaccounted"`
	Note        string             `json:"note,omitempty"`
}

type workloadOut struct {
	Why          string               `json:"why"`
	InputsHash   string               `json:"inputs_hash"`
	OpsAttempted int                  `json:"ops_attempted"`
	OpsFailed    int                  `json:"ops_failed"`
	WallS        float64              `json:"wall_s"`
	LoadBefore   float64              `json:"load_before"`
	LoadAfter    float64              `json:"load_after"`
	Noisy        bool                 `json:"noisy"`
	Metrics      map[string]metricOut `json:"metrics"`
	Ledgers      []ledgerOut          `json:"ledgers"`
}

// report is the result file of a full run.
type report struct {
	Env       environment             `json:"env"`
	Seed      int64                   `json:"seed"`
	Seconds   float64                 `json:"seconds"`
	Scale     string                  `json:"scale"`
	Workloads map[string]*workloadOut `json:"workloads"`
}

func (r *report) failures() int {
	n := 0
	for _, w := range r.Workloads {
		n += w.OpsFailed
	}
	return n
}

// noisyLoad is the 1-minute load average, beyond the benchmark's own, above
// which a workload's numbers are flagged: something else was using the box.
// Every workload but the first starts with the previous one's GOMAXPROCS
// busy threads still in the average.
const noisyLoad = 0.5

// fullReport runs every workload untraced and traced, prints every metric
// by name with its unit, sample count and bound, prints the ledgers, and
// writes the result file.
func fullReport(seed int64, secs float64, sc scale, root, outDir string) (*report, error) {
	rep := &report{Env: gatherEnvironment(root), Seed: seed, Seconds: secs, Scale: sc.name, Workloads: map[string]*workloadOut{}}
	fmt.Printf("netpart benchmark: seed %d, %.0f s per run, scale %s, commit %s, %s, %s, nproc %d, GOMAXPROCS %d, caches %s\n",
		seed, secs, sc.name, rep.Env.Commit, rep.Env.GoVersion, rep.Env.CPUModel, rep.Env.NProc, rep.Env.GOMAXPROCS, strings.Join(rep.Env.Caches, ", "))
	for i := range workloads {
		w := &workloads[i]
		wo := &workloadOut{Why: w.Why, LoadBefore: loadAverage(), Metrics: map[string]metricOut{}}
		untraced, err := runUntraced(w, seed, secs, sc, root)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		traced, err := runTraced(w, seed, secs, sc, root, outDir)
		if err != nil {
			return nil, fmt.Errorf("%s (traced): %w", w.Name, err)
		}
		wo.LoadAfter = loadAverage()
		own := 0.0
		if i > 0 {
			own = float64(rep.Env.GOMAXPROCS)
		}
		wo.Noisy = wo.LoadBefore > own+noisyLoad
		wo.InputsHash = untraced.hash
		wo.OpsAttempted = untraced.attempted + traced.attempted
		wo.OpsFailed = untraced.failed + traced.failed
		wo.WallS = (untraced.wall + traced.wall).Seconds()
		for _, d := range endToEnd {
			wo.Metrics[d.Name] = metricOut{summary: untraced.metrics[d.Name], Unit: d.Unit, Kind: "end_to_end", Better: d.Better, Bound: d.Bound, AbsBound: d.AbsBound}
		}
		for _, d := range perLayer {
			m, ok := traced.metrics[d.Name]
			if !ok {
				return nil, fmt.Errorf("%s: metric %s was not measured", w.Name, d.Name)
			}
			wo.Metrics[d.Name] = metricOut{summary: m, Unit: d.Unit, Kind: "per_layer", Better: d.Better, AbsBound: d.AbsBound}
		}
		for _, l := range traced.ledgers {
			lo := ledgerOut{Title: l.title, Total: l.total, Layers: map[string]float64{}, Unaccounted: l.unaccounted(), Note: l.note}
			for _, r := range l.rows {
				lo.Layers[r.name] = r.value
			}
			wo.Ledgers = append(wo.Ledgers, lo)
		}
		rep.Workloads[w.Name] = wo

		noisy := ""
		if wo.Noisy {
			noisy = "  NOISY: load average before the run more than 0.5 above the benchmark's own"
		}
		fmt.Printf("\n== %s — %s\n   inputs %s, ops attempted %d, failed %d, wall %.1f s, load %.2f -> %.2f%s\n",
			w.Name, w.Why, wo.InputsHash, wo.OpsAttempted, wo.OpsFailed, wo.WallS, wo.LoadBefore, wo.LoadAfter, noisy)
		printMetrics(os.Stdout, untraced.metrics, endToEnd)
		printMetrics(os.Stdout, traced.metrics, perLayer)
		printLedgers(os.Stdout, traced.ledgers)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	data, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return nil, err
	}
	path := filepath.Join(outDir, fmt.Sprintf("result-seed%d.json", seed))
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return nil, err
	}
	fmt.Printf("\nresult file: %s\n", path)
	return rep, nil
}

func printMetrics(w *os.File, metrics map[string]summary, defs []metricDef) {
	for _, d := range defs {
		m := metrics[d.Name]
		line := fmt.Sprintf("  %-40s %14.6g %-5s", d.Name, m.Value, d.Unit)
		if m.N > 1 {
			line += fmt.Sprintf(" n=%-5d q1 %.6g med %.6g q3 %.6g", m.N, m.Q1, m.Median, m.Q3)
			if m.PHiLabel != "" {
				line += fmt.Sprintf(" %s %.6g", m.PHiLabel, m.PHi)
			}
			line += fmt.Sprintf(" spread %.1f%%", m.SpreadPct)
		}
		switch {
		case d.Bound > 0 && d.AbsBound > 0:
			line += fmt.Sprintf("  bound +%.0f%% (driver), +%.1f pt (-compare)", 100*d.Bound, d.AbsBound)
		case d.Bound > 0:
			line += fmt.Sprintf("  bound +%.0f%%", 100*d.Bound)
		case d.AbsBound > 0:
			line += fmt.Sprintf("  bound +%.1f pt (-compare)", d.AbsBound)
		}
		fmt.Fprintln(w, line)
	}
}

func printLedgers(w *os.File, ledgers []*ledger) {
	for _, l := range ledgers {
		fmt.Fprintf(w, "  ledger: %s\n", l.title)
		rows := append([]ledgerRow(nil), l.rows...)
		sort.SliceStable(rows, func(i, j int) bool { return rows[i].value > rows[j].value })
		for _, r := range rows {
			fmt.Fprintf(w, "    %12.6g  %5.1f%%  %s\n", r.value, 100*r.value/l.total, r.name)
		}
		fmt.Fprintf(w, "    %12.6g  %5.1f%%  unaccounted\n", l.unaccounted(), 100*l.unaccounted()/l.total)
		fmt.Fprintf(w, "    %12.6g  100.0%%  end-to-end\n", l.total)
		if l.note != "" {
			fmt.Fprintf(w, "    (%s)\n", l.note)
		}
	}
}
