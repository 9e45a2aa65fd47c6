// Benchmarks regenerating every table and figure of the paper's evaluation
// (see DESIGN.md §4 for the experiment index) plus micro-benchmarks of the
// substrates and the ablation comparisons. Run:
//
//	go test -bench=. -benchmem
//
// A benchmark whose operation carries a budget builds it with an xxxOp
// constructor that budget_test.go's tests share, so the ceiling holds the
// very operation the benchmark times.
package netpart_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"netpart"
	"netpart/internal/analysis"
	"netpart/internal/commbench"
	"netpart/internal/core"
	"netpart/internal/cost"
	"netpart/internal/experiments"
	"netpart/internal/gauss"
	"netpart/internal/mmps"
	"netpart/internal/model"
	"netpart/internal/repart"
	"netpart/internal/stencil"
	"netpart/internal/stencil2d"
	"netpart/internal/topo"
)

var (
	envOnce sync.Once
	envVal  *experiments.Env
	envErr  error
)

func benchEnv(tb testing.TB) *experiments.Env {
	tb.Helper()
	envOnce.Do(func() { envVal, envErr = experiments.NewEnv() })
	if envErr != nil {
		tb.Fatal(envErr)
	}
	return envVal
}

// benchOp times op, the operation an xxxOp constructor set up, b.N times.
func benchOp(b *testing.B, op func(i int)) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op(i)
	}
}

// BenchmarkTable1Partition regenerates Table 1 (E1): the partitioning
// algorithm's choices for all problem sizes and both variants.
func BenchmarkTable1Partition(b *testing.B) {
	e := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table1(e, e.Paper); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2Elapsed regenerates Table 2 (E2): 56 full simulated
// stencil executions plus the partitioner's predictions.
func BenchmarkTable2Elapsed(b *testing.B) { benchOp(b, table2Op(b)) }

func table2Op(tb testing.TB) func(int) {
	e := benchEnv(tb)
	return func(int) {
		if _, err := experiments.Table2(e); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkTable2Jobs pins the parallel experiment engine at explicit
// worker counts — the speedup curve reported in EXPERIMENTS.md E17. The
// output is byte-identical at every count (TestParallelDeterminism); only
// the wall clock changes, and only on a multi-core runner.
func BenchmarkTable2Jobs(b *testing.B) {
	for _, j := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("j=%d", j), func(b *testing.B) {
			e := benchEnv(b).Clone()
			e.Jobs = j
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := experiments.Table2(e); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig3Curve regenerates Fig. 3 (E3): the T_c-vs-processors curve
// at N=600 (estimates plus simulated executions at every point).
func BenchmarkFig3Curve(b *testing.B) { benchOp(b, fig3Op(b)) }

func fig3Op(tb testing.TB) func(int) {
	e := benchEnv(tb)
	return func(int) {
		if _, err := experiments.Fig3(e, 600, stencil.STEN1); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkCostFit regenerates the Section 6.0 cost-constant table (E4):
// the full offline benchmarking sweep plus least-squares fits.
func BenchmarkCostFit(b *testing.B) { benchOp(b, costFitOp(b)) }

func costFitOp(tb testing.TB) func(int) {
	net := model.PaperTestbed()
	return func(int) {
		if _, err := commbench.Run(net, []topo.Topology{topo.OneD{}}, commbench.DefaultGrid()); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkFig2Decompose regenerates the Fig. 2 example (E5): the Eq. 3
// partition vector of a 20×20 matrix over four processors.
func BenchmarkFig2Decompose(b *testing.B) {
	net := model.PaperTestbed()
	cfg := experiments.PaperConfig(4, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Decompose(net, cfg, 20, model.OpFloat); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig1Validate regenerates the Fig. 1 network (E6): model
// construction and validation of the three-cluster example.
func BenchmarkFig1Validate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		net := model.Figure1Network()
		if err := net.Validate(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPartitionOverhead measures the claimed O(K·log2 P) runtime
// overhead of one partitioning decision (E7) — the cost the paper argues
// is easily amortized. It is BenchmarkAblationSearch/bisect's operation.
func BenchmarkPartitionOverhead(b *testing.B) { benchOp(b, searchOp(b, core.Partition)) }

// searchOp runs search on a warm estimator over the fitted testbed table
// at N = 1200, STEN-1.
func searchOp(tb testing.TB, search func(*core.Estimator) (core.Result, error)) func(int) {
	e := benchEnv(tb)
	est, err := core.NewEstimator(e.Net, e.Fitted, stencil.Annotations(1200, stencil.STEN1, 10))
	if err != nil {
		tb.Fatal(err)
	}
	return func(int) {
		if _, err := search(est); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkDecision is one whole decision as a caller pays for it — a
// fresh core.NewEstimator plus core.Partition, the decide-sweep workload's
// unit. Its allocations are the estimator and the Result's three slices
// (TestAllocationBudgets holds the ceiling).
func BenchmarkDecision(b *testing.B) { benchOp(b, decisionOp(b)) }

func decisionOp(tb testing.TB) func(int) {
	e := benchEnv(tb)
	ann := stencil.Annotations(1200, stencil.STEN1, 10)
	return func(int) {
		est, err := core.NewEstimator(e.Net, e.Fitted, ann)
		if err != nil {
			tb.Fatal(err)
		}
		if _, err := core.Partition(est); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkNewEstimator is what a decision pays before its first probe:
// Annotations.Validate, Network.Validate and the Estimator, its one
// allocation (TestAllocationBudgets holds the ceiling). The network, table
// and annotations are built once, outside the loop.
func BenchmarkNewEstimator(b *testing.B) { benchOp(b, newEstimatorOp(b)) }

func newEstimatorOp(tb testing.TB) func(int) {
	e := benchEnv(tb)
	ann := stencil.Annotations(1200, stencil.STEN1, 10)
	return func(int) {
		if _, err := core.NewEstimator(e.Net, e.Fitted, ann); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkGaussSolve regenerates E8: partitioning plus distributed
// Gaussian elimination with partial pivoting at N=64.
func BenchmarkGaussSolve(b *testing.B) {
	e := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Gauss(e, 64); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblations runs the A1-A4 design-choice studies of DESIGN.md.
func BenchmarkAblations(b *testing.B) {
	e := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Ablations(e); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationSearch compares the three search strategies (ablations
// A1/A2) on the N=1200 STEN-1 instance.
func BenchmarkAblationSearch(b *testing.B) {
	for _, s := range searches {
		b.Run(s.name, func(b *testing.B) { benchOp(b, searchOp(b, s.run)) })
	}
}

// searches are the three strategies BenchmarkAblationSearch compares.
var searches = []struct {
	name string
	run  func(*core.Estimator) (core.Result, error)
}{
	{"bisect", core.Partition},
	{"scan", core.PartitionLinear},
	{"exhaustive", core.PartitionExhaustive},
}

// BenchmarkStencilSim measures one full simulated STEN-2 execution at
// N=600 on the partitioner-chosen configuration.
func BenchmarkStencilSim(b *testing.B) { benchOp(b, stencilSimOp(b)) }

func stencilSimOp(tb testing.TB) func(int) {
	e := benchEnv(tb)
	est, err := core.NewEstimator(e.Net, e.Fitted, stencil.Annotations(600, stencil.STEN2, 10))
	if err != nil {
		tb.Fatal(err)
	}
	res, err := core.Partition(est)
	if err != nil {
		tb.Fatal(err)
	}
	return func(int) {
		if _, err := stencil.Sim(e.Net, res.Config, res.Vector, stencil.STEN2, 600, 10, stencil.Options{}); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkStencilLiveLocal measures a real concurrent execution (6
// goroutine tasks over the in-memory transport) at N=240.
func BenchmarkStencilLiveLocal(b *testing.B) {
	net := model.PaperTestbed()
	cfg := experiments.PaperConfig(4, 2)
	vec, err := core.Decompose(net, cfg, 240, model.OpFloat)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		world, err := netpart.NewLocalWorld(6)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := stencil.Live(world, vec, stencil.STEN2, 240, 10, stencil.Options{}); err != nil {
			b.Fatal(err)
		}
		for _, tr := range world {
			tr.Close()
		}
	}
}

// BenchmarkMMPSRoundTripUDP measures the reliable-UDP substrate's
// request/response latency on a single-datagram message. Neither side
// recycles, so the two delivered buffers are the two allocations left.
func BenchmarkMMPSRoundTripUDP(b *testing.B) {
	benchOp(b, pingPongOp(b, netpart.NewUDPWorld, 1024, false))
}

// BenchmarkMMPSHaloUDP is the same exchange at the live stencil's size and
// habits: a 4 KB halo row is three fragments and one range ack, and both
// sides hand delivered buffers back, so the steady state allocates nothing.
func BenchmarkMMPSHaloUDP(b *testing.B) { benchOp(b, pingPongOp(b, netpart.NewUDPWorld, 4096, true)) }

// BenchmarkMMPSHaloLocal is the 4 KB recycled ping-pong over the in-memory
// transport. Each side's receive blocks until the other has sent, as a live
// run's mostly do, so this is the traffic whose waits the endpoint's timer
// serves; it allocates nothing.
func BenchmarkMMPSHaloLocal(b *testing.B) {
	benchOp(b, pingPongOp(b, netpart.NewLocalWorld, 4096, true))
}

// pingPongOp is one round trip of a size-byte message between two
// endpoints of a fresh world, rank 1 echoing on its own goroutine; the
// world closes at tb's cleanup.
func pingPongOp(tb testing.TB, newWorld func(int, ...mmps.Option) ([]netpart.Transport, error), size int, recycle bool) func(int) {
	world, err := newWorld(2)
	if err != nil {
		tb.Fatal(err)
	}
	done := make(chan struct{})
	tb.Cleanup(func() {
		world[1].Close()
		select {
		case <-done:
		case <-time.After(time.Second):
		}
		world[0].Close()
	})
	go func() {
		defer close(done)
		for {
			buf, err := world[1].Recv(0)
			if err != nil {
				return
			}
			if err := world[1].Send(0, buf); err != nil {
				return
			}
			if recycle {
				mmps.Recycle(world[1], buf)
			}
		}
	}()
	payload := make([]byte, size)
	return func(int) {
		if err := world[0].Send(1, payload); err != nil {
			tb.Fatal(err)
		}
		buf, err := world[0].Recv(1)
		if err != nil {
			tb.Fatal(err)
		}
		if recycle {
			mmps.Recycle(world[0], buf)
		}
	}
}

// BenchmarkSequentialStencil is the single-processor reference kernel.
func BenchmarkSequentialStencil(b *testing.B) { benchOp(b, sequentialOp(b)) }

func sequentialOp(testing.TB) func(int) {
	grid := stencil.NewGrid(600)
	return func(int) { stencil.Sequential(grid, 1) }
}

// BenchmarkSequentialGauss is the reference elimination kernel.
func BenchmarkSequentialGauss(b *testing.B) {
	s := gauss.NewSystem(128, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gauss.Sequential(s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAdaptiveRepartition regenerates E9: dynamic repartitioning with
// real row migration under injected load.
func BenchmarkAdaptiveRepartition(b *testing.B) {
	e := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Adaptive(e, 200, 40); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEstimateDelta measures one warm delta-evaluated probe — the unit
// of work the Partition search and the Fig. 3 curve now spend per candidate
// instead of a full Estimate. internal/core's TestDeltaProbeZeroAllocs holds
// this probe to zero allocations; TestLatencyBudgets holds its time.
func BenchmarkEstimateDelta(b *testing.B) { benchOp(b, probeOp(b)) }

func probeOp(tb testing.TB) func(int) {
	est, err := core.NewEstimator(model.PaperTestbed(), cost.PaperTable(),
		stencil.Annotations(600, stencil.STEN2, 100))
	if err != nil {
		tb.Fatal(err)
	}
	cfg := cost.Config{
		Clusters: []string{model.Sparc2Cluster, model.IPCCluster},
		Counts:   []int{6, 0},
	}
	d, err := est.BeginDelta(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := d.Probe(1, 3); err != nil { // warm the lazy memos
		tb.Fatal(err)
	}
	return func(i int) {
		e, err := d.Probe(1, 1+i%6)
		if err != nil {
			tb.Fatal(err)
		}
		if e.TcMs <= 0 {
			tb.Fatal("non-positive estimate")
		}
	}
}

// BenchmarkRepartPlan measures one incremental-repartitioning planner
// invocation at P=16 — the latency rank 0 pays inside a drift-triggered
// round before broadcasting the decision. TestLatencyBudgets holds it
// under a millisecond.
func BenchmarkRepartPlan(b *testing.B) { benchOp(b, planOp(b)) }

func planOp(tb testing.TB) func(int) {
	p := repart.NewPlanner(repart.PlannerConfig{
		Mig: cost.Migration{PerMoveMs: 0.05, PerByteMs: 1e-6, RowBytes: 8 * 1024},
	})
	cur := make(core.Vector, 16)
	measured := make([]float64, 16)
	for i := range cur {
		cur[i] = 64
		measured[i] = float64(64 + 13*i%37)
	}
	return func(i int) {
		plan := p.Plan(i, "drift", cur, measured)
		if plan.New.Sum() != cur.Sum() {
			tb.Fatal("row total changed")
		}
	}
}

// BenchmarkStencilLiveAdaptiveCycle measures a full live adaptive run — 6
// goroutine ranks over the in-memory transport with a loaded rank, interval
// rebalancing every 2 cycles, and real row migration between cycles.
func BenchmarkStencilLiveAdaptiveCycle(b *testing.B) {
	const n, iters = 96, 8
	vec := core.Vector{16, 16, 16, 16, 16, 16}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		world, err := netpart.NewLocalWorld(6)
		if err != nil {
			b.Fatal(err)
		}
		res, err := stencil.Live(world, vec, stencil.STEN1, n, iters, stencil.Options{
			RebalanceEvery: 2,
			WorkFactor:     []int{1, 1, 4, 1, 1, 1},
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.FinalVector.Sum() != n {
			b.Fatal("row total changed")
		}
		for _, tr := range world {
			tr.Close()
		}
	}
}

// BenchmarkMetasystem regenerates E10: partitioning on the metasystem
// testbed (includes its own commbench run).
func BenchmarkMetasystem(b *testing.B) {
	e := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Metasystem(e, 1200); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStartup regenerates E11: measured and estimated initial
// distribution costs.
func BenchmarkStartup(b *testing.B) {
	e := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Startup(e); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPartitionGlobal measures the general-case search (ablation A7).
func BenchmarkPartitionGlobal(b *testing.B) { benchOp(b, globalOp(b)) }

func globalOp(tb testing.TB) func(int) {
	e := benchEnv(tb)
	est, err := core.NewEstimator(e.Net, e.Paper, stencil.Annotations(300, stencil.STEN2, 10))
	if err != nil {
		tb.Fatal(err)
	}
	return func(int) {
		if _, err := core.PartitionGlobal(est); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkAnnotationCompile measures the annotation-spec compiler.
func BenchmarkAnnotationCompile(b *testing.B) {
	spec := `{
	  "name": "STEN-2", "params": {"N": 600}, "num_pdus": "N", "cycles": 10,
	  "compute": [{"name": "grid-update", "complexity_per_pdu": "5*N"}],
	  "comm": [{"name": "border", "topology": "1-D",
	            "bytes_per_message": "4*N", "overlap": "grid-update"}]
	}`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := netpart.CompileAnnotations(strings.NewReader(spec)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkImplSelect regenerates E12: implementation selection between
// the 1-D and 2-D decompositions across all problem sizes.
func BenchmarkImplSelect(b *testing.B) {
	e := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ImplSelect(e); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStencil2DSim measures one simulated 2-D execution at N=600 on
// the full 3×4 mesh.
func BenchmarkStencil2DSim(b *testing.B) {
	net := model.PaperTestbed()
	cfg := experiments.PaperConfig(6, 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stencil2d.RunSim(net, cfg, 600, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParticles regenerates E13: the particle simulation with uniform
// versus density-weighted decomposition.
func BenchmarkParticles(b *testing.B) {
	e := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Particles(e); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSelectionCost regenerates E14: runtime partitioning versus
// Reeves-style benchmarked selection.
func BenchmarkSelectionCost(b *testing.B) {
	e := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.SelectionCost(e, 300); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEstimateObserver guards the observer hook's hot-path cost: the
// disabled case (nil Observer) must match the pre-observability baseline —
// in particular, zero allocations attributable to the hook — while the
// enabled case shows the price of full candidate recording.
func BenchmarkEstimateObserver(b *testing.B) {
	net := model.PaperTestbed()
	costs := netpart.PaperCostTable()
	ann := stencil.Annotations(600, stencil.STEN1, 10)
	cfg := experiments.PaperConfig(4, 2)
	for _, tc := range []struct {
		name     string
		observer func() core.Observer
	}{
		{"disabled", func() core.Observer { return nil }},
		{"enabled", func() core.Observer { return &core.SearchTrace{} }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			est, err := core.NewEstimator(net, costs, ann)
			if err != nil {
				b.Fatal(err)
			}
			est.Observer = tc.observer()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := est.Estimate(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLintWholeTree measures one full netpartlint analyzer pass —
// including the CFG/dataflow engine (concsafety, poolflow) and the
// cross-package units propagation — over every package of the module. The
// module is loaded and typechecked once outside the timer: the regression
// target is analyzer cost, which the flow-sensitive passes dominate.
func BenchmarkLintWholeTree(b *testing.B) {
	pkgs, _, err := analysis.LoadModule("./...")
	if err != nil {
		b.Fatal(err)
	}
	analyzers := analysis.Analyzers()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, pkg := range pkgs {
			diags, err := analysis.Check(pkg, analyzers)
			if err != nil {
				b.Fatal(err)
			}
			if len(diags) != 0 {
				b.Fatalf("tree not lint-clean: %s", diags[0])
			}
		}
	}
}

// BenchmarkCallGraphWholeTree measures the interprocedural layer alone:
// building the whole-module call graph (interface type-set resolution
// included) and solving every function summary bottom-up in SCC order —
// the fixed cost the allocfree/msgproto/determinism analyzers add to a
// lint run. Loading and typechecking stay outside the timer, mirroring
// BenchmarkLintWholeTree.
func BenchmarkCallGraphWholeTree(b *testing.B) {
	pkgs, _, err := analysis.LoadModule("./...")
	if err != nil {
		b.Fatal(err)
	}
	if len(pkgs) == 0 {
		b.Fatal("no packages loaded")
	}
	fset := pkgs[0].Fset
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ip := analysis.BuildInterproc(fset, pkgs)
		if ip == nil {
			b.Fatal("BuildInterproc returned nil")
		}
	}
}

// BenchmarkNoise regenerates E15: cost-model fitting and partitioning
// across channel-jitter levels.
func BenchmarkNoise(b *testing.B) {
	e := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Noise(e); err != nil {
			b.Fatal(err)
		}
	}
}
