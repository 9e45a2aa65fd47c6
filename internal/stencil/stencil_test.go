package stencil

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"netpart/internal/core"
	"netpart/internal/cost"
	"netpart/internal/model"
)

func paperConfig(p1, p2 int) cost.Config {
	return cost.Config{
		Clusters: []string{model.Sparc2Cluster, model.IPCCluster},
		Counts:   []int{p1, p2},
	}
}

func gridsEqual(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

func TestSequentialConservesBoundary(t *testing.T) {
	g := Sequential(NewGrid(16), 5)
	for j := 0; j < 16; j++ {
		if g[0][j] != 100 {
			t.Fatalf("north boundary changed: g[0][%d] = %v", j, g[0][j])
		}
		if g[15][j] != 0 {
			t.Fatalf("south boundary changed: g[15][%d] = %v", j, g[15][j])
		}
	}
	// Heat must have diffused into the interior.
	if g[1][8] <= 0 {
		t.Error("no diffusion after 5 iterations")
	}
	// Values stay within the boundary range (maximum principle).
	for i := range g {
		for j := range g[i] {
			if g[i][j] < 0 || g[i][j] > 100 {
				t.Fatalf("g[%d][%d] = %v outside [0,100]", i, j, g[i][j])
			}
		}
	}
}

// TestSequentialZeroIterationsIsIdentity: any grid after no iterations, and
// grids with no interior (N = 0, 1, 2) after any number, come back equal to
// the input, in storage of their own, and the input is left as it was.
func TestSequentialZeroIterationsIsIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 2, 3, 16} {
		for _, iters := range []int{0, 1, 4} {
			if n > 2 && iters > 0 {
				continue
			}
			init := randomGrid(rng, n)
			keep := seedCloneGrid(init)
			got := map[string][][]float64{"Sequential": Sequential(init, iters)}
			got["SequentialUntil"], _, _ = SequentialUntil(init, -1, iters)
			for name, g := range got {
				if i, j, ok := sameBits(g, keep); !ok {
					t.Fatalf("%s N=%d iters=%d: grid[%d][%d] differs from the input", name, n, iters, i, j)
				}
				for _, row := range g {
					for j := range row {
						row[j] = -row[j] - 1
					}
				}
				if i, j, ok := sameBits(init, keep); !ok {
					t.Fatalf("%s N=%d iters=%d: input grid[%d][%d] modified or aliased by the result", name, n, iters, i, j)
				}
			}
		}
	}
}

func TestDistributedMatchesSequential(t *testing.T) {
	net := model.PaperTestbed()
	cases := []struct {
		name   string
		cfg    cost.Config
		n      int
		iters  int
		varnts []Variant
	}{
		{"single task", paperConfig(1, 0), 24, 4, []Variant{STEN1, STEN2}},
		{"homogeneous", paperConfig(4, 0), 24, 4, []Variant{STEN1, STEN2}},
		{"heterogeneous", paperConfig(6, 6), 60, 10, []Variant{STEN1, STEN2}},
		{"two tasks", paperConfig(2, 0), 9, 3, []Variant{STEN1, STEN2}},
		{"single-row tasks", paperConfig(6, 2), 8, 5, []Variant{STEN1, STEN2}},
	}
	for _, tc := range cases {
		want := Sequential(NewGrid(tc.n), tc.iters)
		vec, err := core.Decompose(net, tc.cfg, tc.n, model.OpFloat)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, v := range tc.varnts {
			res, err := Sim(net, tc.cfg, vec, v, tc.n, tc.iters, Options{})
			if err != nil {
				t.Fatalf("%s/%s: %v", tc.name, v, err)
			}
			if !gridsEqual(res.Grid, want) {
				t.Errorf("%s/%s: distributed grid differs from sequential", tc.name, v)
			}
			if res.ElapsedMs <= 0 {
				t.Errorf("%s/%s: elapsed = %v", tc.name, v, res.ElapsedMs)
			}
		}
	}
}

func TestSTEN2FasterThanSTEN1(t *testing.T) {
	// Table 2: STEN-2 outperforms STEN-1 for all problem sizes once
	// communication matters.
	net := model.PaperTestbed()
	cfg := paperConfig(6, 0)
	vec, err := core.Decompose(net, cfg, 300, model.OpFloat)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := Sim(net, cfg, vec, STEN1, 300, 10, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Sim(net, cfg, vec, STEN2, 300, 10, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r2.ElapsedMs >= r1.ElapsedMs {
		t.Errorf("STEN-2 (%v ms) not faster than STEN-1 (%v ms)", r2.ElapsedMs, r1.ElapsedMs)
	}
}

func TestElapsedNearModelPrediction(t *testing.T) {
	// The simulator and the Eq. 4-6 estimate share cost structure; for a
	// single-cluster run they should agree within a modest factor.
	net := model.PaperTestbed()
	cfg := paperConfig(6, 0)
	n, iters := 600, 10
	vec, err := core.Decompose(net, cfg, n, model.OpFloat)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Sim(net, cfg, vec, STEN1, n, iters, Options{})
	if err != nil {
		t.Fatal(err)
	}
	est, err := core.NewEstimator(net, cost.PaperTable(), Annotations(n, STEN1, iters))
	if err != nil {
		t.Fatal(err)
	}
	pred, err := est.Estimate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	predicted := pred.ElapsedMs(iters)
	ratio := res.ElapsedMs / predicted
	if ratio < 0.5 || ratio > 2.0 {
		t.Errorf("simulated %v ms vs predicted %v ms (ratio %.2f)", res.ElapsedMs, predicted, ratio)
	}
}

func TestHeterogeneousBeatsEqualDecomposition(t *testing.T) {
	// The paper's N=1200 comparison: the Eq. 3 decomposition beats an
	// equal split on a heterogeneous configuration.
	net := model.PaperTestbed()
	cfg := paperConfig(6, 6)
	n, iters := 240, 5
	balanced, err := core.Decompose(net, cfg, n, model.OpFloat)
	if err != nil {
		t.Fatal(err)
	}
	equal := make(core.Vector, 12)
	for i := range equal {
		equal[i] = n / 12
	}
	rBal, err := Sim(net, cfg, balanced, STEN1, n, iters, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rEq, err := Sim(net, cfg, equal, STEN1, n, iters, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rBal.ElapsedMs >= rEq.ElapsedMs {
		t.Errorf("balanced %v ms not better than equal %v ms", rBal.ElapsedMs, rEq.ElapsedMs)
	}
	// Both must still compute the right answer.
	want := Sequential(NewGrid(n), iters)
	if !gridsEqual(rBal.Grid, want) || !gridsEqual(rEq.Grid, want) {
		t.Error("decomposition changed numerics")
	}
}

// TestRunSimRejectsOversubscription: seven tasks on the six-Sparc2 cluster
// is a placement the testbed cannot host, so the run is refused by name
// rather than simulated on a processor that does not exist.
func TestRunSimRejectsOversubscription(t *testing.T) {
	net := model.PaperTestbed()
	cfg := paperConfig(7, 0)
	vec, err := core.Decompose(net, cfg, 60, model.OpFloat)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Sim(net, cfg, vec, STEN1, 60, 2, Options{})
	if err == nil {
		t.Fatal("7 tasks on a 6-processor cluster accepted")
	}
	for _, want := range []string{`"sparc2"`, "7 tasks", "6 processors"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %s", err, want)
		}
	}
}

func TestAnnotationsShape(t *testing.T) {
	a := Annotations(600, STEN2, 10)
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if a.NumPDUs() != 600 {
		t.Errorf("NumPDUs = %d", a.NumPDUs())
	}
	if got := a.Compute[0].ComplexityPerPDU(); got != 3000 {
		t.Errorf("complexity = %v, want 5N = 3000", got)
	}
	if got := a.Comm[0].BytesPerMessage(0); got != 2400 {
		t.Errorf("bytes = %v, want 4N = 2400", got)
	}
	if a.Comm[0].Overlap == "" {
		t.Error("STEN-2 must declare overlap")
	}
	if Annotations(600, STEN1, 10).Comm[0].Overlap != "" {
		t.Error("STEN-1 must not declare overlap")
	}
	if STEN1.String() != "STEN-1" || STEN2.String() != "STEN-2" {
		t.Error("variant names")
	}
}

// Property: any feasible partition vector yields the sequential answer for
// both variants (correctness independent of decomposition).
func TestAnyDecompositionIsCorrectProperty(t *testing.T) {
	net := model.PaperTestbed()
	const n, iters = 20, 3
	want := Sequential(NewGrid(n), iters)
	f := func(p1Raw, p2Raw, skew uint8) bool {
		p1 := int(p1Raw%6) + 1
		p2 := int(p2Raw % 7)
		if p1+p2 > n {
			return true
		}
		cfg := paperConfig(p1, p2)
		vec, err := core.Decompose(net, cfg, n, model.OpFloat)
		if err != nil {
			return false
		}
		// Skew the vector deterministically while keeping it valid: move
		// rows from the largest entry to the smallest.
		for s := 0; s < int(skew%4); s++ {
			lo, hi := 0, 0
			for i := range vec {
				if vec[i] < vec[lo] {
					lo = i
				}
				if vec[i] > vec[hi] {
					hi = i
				}
			}
			if vec[hi] > 1 {
				vec[hi]--
				vec[lo]++
			}
		}
		for _, v := range []Variant{STEN1, STEN2} {
			res, err := Sim(net, cfg, vec, v, n, iters, Options{})
			if err != nil {
				return false
			}
			if !gridsEqual(res.Grid, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestMoreProcessorsReduceComputeBoundElapsed(t *testing.T) {
	// In region A of Fig. 3 (large problem, few processors) adding
	// processors must reduce elapsed time.
	net := model.PaperTestbed()
	n, iters := 300, 5
	var prev float64 = math.Inf(1)
	for _, p1 := range []int{1, 2, 4} {
		cfg := paperConfig(p1, 0)
		vec, err := core.Decompose(net, cfg, n, model.OpFloat)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Sim(net, cfg, vec, STEN1, n, iters, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.ElapsedMs >= prev {
			t.Errorf("p1=%d: elapsed %v did not improve on %v", p1, res.ElapsedMs, prev)
		}
		prev = res.ElapsedMs
	}
}

func TestScatterSimNearEstimate(t *testing.T) {
	// The measured initial distribution should be within 2x of the
	// estimator's T_startup model (both are per-message channel costs).
	net := model.PaperTestbed()
	n := 1200
	cfg := paperConfig(6, 6)
	vec, err := core.Decompose(net, cfg, n, model.OpFloat)
	if err != nil {
		t.Fatal(err)
	}
	measured, err := ScatterSim(net, cfg, vec, n)
	if err != nil {
		t.Fatal(err)
	}
	if measured <= 0 {
		t.Fatal("no scatter time")
	}
	e, err := core.NewEstimator(net, cost.PaperTable(), Annotations(n, STEN1, 10))
	if err != nil {
		t.Fatal(err)
	}
	est, err := e.Estimate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ratio := measured / est.StartupMs
	if ratio < 0.5 || ratio > 2 {
		t.Errorf("scatter measured %v ms vs estimated %v ms (ratio %.2f)", measured, est.StartupMs, ratio)
	}
	// Quantifying the paper's exclusion of distribution cost: at the
	// paper's 10 iterations the scatter actually EXCEEDS the run (their
	// "sufficient granularity" assumption needs more iterations).
	run, err := Sim(net, cfg, vec, STEN1, n, 10, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if measured < run.ElapsedMs {
		t.Logf("note: scatter %v ms below 10-iteration run %v ms", measured, run.ElapsedMs)
	}
	// Per-cycle cost times a realistic iteration count dwarfs it.
	if perCycle := run.ElapsedMs / 10; measured > perCycle*1000/20 {
		t.Errorf("scatter %v ms not amortized by 1000 cycles of %v ms", measured, perCycle)
	}
}

func TestScatterSimValidates(t *testing.T) {
	net := model.PaperTestbed()
	if _, err := ScatterSim(net, paperConfig(2, 0), core.Vector{3, 3}, 10); err == nil {
		t.Error("vector/N mismatch accepted")
	}
}

func TestMetasystemPartitionPrefersMulticomputer(t *testing.T) {
	// §7: the method applies unchanged to a metasystem. The 8-node
	// multicomputer is faster in both compute and communication, so it is
	// exhausted before any workstation is used.
	net := model.MetasystemTestbed()
	// Benchmark-derived constants for the paper clusters plus hand-built
	// ones for the mesh (its channel is so fast the constants are tiny).
	tbl := cost.PaperTable()
	tbl.SetComm("paragon", "1-D", cost.Params{C2: 0.06, C4: 0.00002})
	tbl.SetRouter("paragon", model.Sparc2Cluster, cost.PerByte{Ms: 0.0006})
	tbl.SetRouter("paragon", model.IPCCluster, cost.PerByte{Ms: 0.0006})
	tbl.SetCoerce("paragon", model.Sparc2Cluster, cost.PerByte{Ms: 0.0004})
	tbl.SetCoerce("paragon", model.IPCCluster, cost.PerByte{Ms: 0.0004})
	e, err := core.NewEstimator(net, tbl, Annotations(600, STEN1, 10))
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Partition(e)
	if err != nil {
		t.Fatal(err)
	}
	if res.Config.Clusters[0] != "paragon" {
		t.Fatalf("fastest cluster should be searched first: %v", res.Config)
	}
	if res.Config.Counts[0] == 0 {
		t.Errorf("multicomputer unused: %v", res.Config)
	}
	// Workstations only after the paragon is exhausted.
	if (res.Config.Counts[1] > 0 || res.Config.Counts[2] > 0) && res.Config.Counts[0] != 8 {
		t.Errorf("workstations used before the multicomputer is full: %v", res.Config)
	}
	// And the heterogeneous decomposition gives paragon tasks ~3x the rows
	// of Sparc2 tasks when both are used.
	if res.Config.Counts[0] == 8 && res.Config.Counts[1] > 0 {
		ratio := float64(res.Vector[0]) / float64(res.Vector[8])
		if math.Abs(ratio-3) > 0.5 {
			t.Errorf("paragon/sparc2 row ratio = %v, want ≈ 3", ratio)
		}
	}
}

func TestDistributedOnThreeClusterCoercionNetwork(t *testing.T) {
	// Full integration on the Fig. 1 network: three clusters, three
	// segments, and a data-format boundary (sun4/hp are big-endian,
	// rs6000 little-endian), so border exchanges across the rs6000
	// boundary pay simulated coercion. Numerics must stay bit-exact.
	net := model.Figure1Network()
	cfg := cost.Config{
		Clusters: []string{"rs6000", "hp", "sun4"}, // fastest first
		Counts:   []int{2, 2, 2},
	}
	const n, iters = 36, 5
	vec, err := core.Decompose(net, cfg, n, model.OpFloat)
	if err != nil {
		t.Fatal(err)
	}
	want := Sequential(NewGrid(n), iters)
	for _, v := range []Variant{STEN1, STEN2} {
		res, err := Sim(net, cfg, vec, v, n, iters, Options{})
		if err != nil {
			t.Fatalf("%s: %v", v, err)
		}
		if !gridsEqual(res.Grid, want) {
			t.Errorf("%s: three-cluster grid differs from sequential", v)
		}
		// All three segments must have carried traffic.
		if len(res.Report.Segments) != 3 {
			t.Fatalf("%s: segments = %+v", v, res.Report.Segments)
		}
		for _, s := range res.Report.Segments {
			if s.Messages == 0 {
				t.Errorf("%s: segment %s idle", v, s.Name)
			}
		}
	}
}

func TestCoercionCostsChargeBoundarySenders(t *testing.T) {
	// The same two-cluster exchange pays per-byte coercion at the format
	// boundary. The cost lands on the boundary tasks' CPUs (visible in
	// their accounted busy time even when it hides in critical-path slack).
	base := model.Figure1Network()
	cfg := cost.Config{Clusters: []string{"sun4", "rs6000"}, Counts: []int{2, 2}}
	const n, iters = 48, 5
	vec, err := core.Decompose(base, cfg, n, model.OpFloat)
	if err != nil {
		t.Fatal(err)
	}
	mixed, err := Sim(base, cfg, vec, STEN1, n, iters, Options{})
	if err != nil {
		t.Fatal(err)
	}
	same := model.Figure1Network()
	same.Cluster("rs6000").Format = model.FormatBigEndian // no coercion now
	uniform, err := Sim(same, cfg, vec, STEN1, n, iters, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Rank 1 (last sun4) sends one coerced border per iteration.
	perMsg := base.Coerce.PerByteMs * float64(BytesPerPoint*n)
	delta := mixed.Report.Procs[1].ComputeMs - uniform.Report.Procs[1].ComputeMs
	if math.Abs(delta-float64(iters)*perMsg) > 1e-9 {
		t.Errorf("boundary task coercion CPU delta = %v, want %v", delta, float64(iters)*perMsg)
	}
	// An interior task pays nothing extra.
	if d0 := mixed.Report.Procs[0].ComputeMs - uniform.Report.Procs[0].ComputeMs; d0 != 0 {
		t.Errorf("interior task charged %v for coercion", d0)
	}
}

func TestConvergenceMatchesSequential(t *testing.T) {
	net := model.PaperTestbed()
	const n, tol, maxIters = 24, 0.05, 500
	wantGrid, wantIters, wantDelta := SequentialUntil(NewGrid(n), tol, maxIters)
	if wantIters == 0 || wantIters == maxIters {
		t.Fatalf("test premise: converged in %d iterations", wantIters)
	}
	for _, v := range []Variant{STEN1, STEN2} {
		for _, cfgCounts := range [][2]int{{1, 0}, {3, 0}, {4, 2}} {
			cfg := paperConfig(cfgCounts[0], cfgCounts[1])
			vec, err := core.Decompose(net, cfg, n, model.OpFloat)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Sim(net, cfg, vec, v, n, maxIters, Options{Tol: tol})
			if err != nil {
				t.Fatalf("%s (%d,%d): %v", v, cfgCounts[0], cfgCounts[1], err)
			}
			if res.Iterations != wantIters {
				t.Errorf("%s (%d,%d): converged in %d iterations, sequential %d",
					v, cfgCounts[0], cfgCounts[1], res.Iterations, wantIters)
			}
			if res.FinalDelta != wantDelta {
				t.Errorf("%s: final delta %v vs %v", v, res.FinalDelta, wantDelta)
			}
			if !gridsEqual(res.Grid, wantGrid) {
				t.Errorf("%s (%d,%d): converged grid differs", v, cfgCounts[0], cfgCounts[1])
			}
		}
	}
}

func TestConvergenceMaxItersCap(t *testing.T) {
	net := model.PaperTestbed()
	const n = 24
	cfg := paperConfig(2, 0)
	vec, err := core.Decompose(net, cfg, n, model.OpFloat)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Sim(net, cfg, vec, STEN1, n, 7, Options{Tol: 1e-30}) // unreachable tol
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 7 {
		t.Errorf("iterations = %d, want capped at 7", res.Iterations)
	}
	// The capped run equals the fixed-iteration runtime's result.
	fixed, err := Sim(net, cfg, vec, STEN1, n, 7, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !gridsEqual(res.Grid, fixed.Grid) {
		t.Error("capped convergence run differs from fixed-iteration run")
	}
}
