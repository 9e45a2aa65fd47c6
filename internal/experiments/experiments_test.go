package experiments

import (
	"math"
	"strings"
	"testing"

	"netpart/internal/core"
	"netpart/internal/stencil"
	"netpart/internal/trace"
)

// sharedEnv caches the benchmarked environment across tests in this
// package (commbench runs once).
var sharedEnv *Env

func env(t *testing.T) *Env {
	t.Helper()
	if sharedEnv == nil {
		e, err := NewEnv()
		if err != nil {
			t.Fatal(err)
		}
		sharedEnv = e
	}
	return sharedEnv
}

func TestTable1WithPaperConstants(t *testing.T) {
	e := env(t)
	rows, err := Table1(e, e.Paper)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("rows = %d, want 8", len(rows))
	}
	matches := 0
	for _, r := range rows {
		if r.P1 == r.PaperP1 && r.P2 == r.PaperP2 {
			matches++
		}
		if r.P2 > 0 && r.P1 != 6 {
			t.Errorf("N=%d %s: IPCs used before Sparc2s exhausted: (%d,%d)", r.N, r.Variant, r.P1, r.P2)
		}
		if r.PredictedTcMs <= 0 {
			t.Errorf("N=%d %s: Tc = %v", r.N, r.Variant, r.PredictedTcMs)
		}
	}
	// The paper's own constants reproduce most rows; the known
	// disagreements (N=60 STEN-1, N=300 rows, N=1200 STEN-1) stem from the
	// paper's internal inconsistencies documented in EXPERIMENTS.md.
	if matches < 4 {
		t.Errorf("only %d/8 rows match the published Table 1", matches)
	}
	out := renderTable1(rows)
	if !strings.Contains(out, "STEN-1") || !strings.Contains(out, "match") {
		t.Error("render output malformed")
	}
}

func TestTable1WithFittedConstants(t *testing.T) {
	e := env(t)
	rows, err := Table1(e, e.Fitted)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.P1 < 1 {
			t.Errorf("N=%d %s: no processors chosen", r.N, r.Variant)
		}
		// The paper's qualitative claim: IPCs are used only once the
		// problem is large enough.
		if r.N == 60 && r.P2 > 0 {
			t.Errorf("N=60 should not use IPCs; got (%d,%d)", r.P1, r.P2)
		}
		if r.N == 1200 && r.P2 == 0 {
			t.Errorf("N=1200 should use IPCs; got (%d,%d)", r.P1, r.P2)
		}
	}
}

func TestTable2PredictionsNearMinimum(t *testing.T) {
	e := env(t)
	rows, err := Table2(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("rows = %d", len(rows))
	}
	// The ceiling on |T_c residual| over the 56 cells. The worst cell,
	// +11.2 %, is N = 300 STEN-1 6+2, a crossing charged 2·own; the
	// STEN-1 two-rank cells (2+0), charged the measured p = 2 stagger,
	// sit within +0.1 … +1.9 %.
	const maxResidualPct = 12.0
	for _, r := range rows {
		// The reproduced headline claim: the predicted minimum is the
		// measured minimum on every row.
		if r.PredictedGapPct != 0 {
			t.Errorf("N=%d %s: prediction %.1f%% above measured minimum", r.N, r.Variant, r.PredictedGapPct)
		}
		est, err := core.NewEstimator(e.Net, e.Fitted, stencil.Annotations(r.N, r.Variant, Iterations))
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range r.Cells {
			pred, err := est.Estimate(PaperConfig(c.P1, c.P2))
			if err != nil {
				t.Fatal(err)
			}
			if res := trace.DeviationPct(pred.ElapsedMs(Iterations), c.ElapsedMs); math.Abs(res) > maxResidualPct {
				t.Errorf("N=%d %s %d+%d: T_c residual %+.1f%%, ceiling %.0f%%", r.N, r.Variant, c.P1, c.P2, res, maxResidualPct)
			}
		}
		// STEN-2 must beat STEN-1 at the measured minimum (Table 2).
		if r.EqualDecompMs > 0 {
			var min66 float64
			for _, c := range r.Cells {
				if c.P1 == 6 && c.P2 == 6 {
					min66 = c.ElapsedMs
				}
			}
			if r.EqualDecompMs <= min66 {
				t.Errorf("N=%d %s: equal decomposition (%v) not worse than Eq. 3 (%v)",
					r.N, r.Variant, r.EqualDecompMs, min66)
			}
		}
	}
	out := renderTable2(rows)
	if !strings.Contains(out, "*") || !strings.Contains(out, "p") {
		t.Error("render lacks min/prediction markers")
	}
}

func TestTable2STEN2Faster(t *testing.T) {
	e := env(t)
	rows, err := Table2(e)
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[int]map[stencil.Variant]Table2Row{}
	for _, r := range rows {
		if byKey[r.N] == nil {
			byKey[r.N] = map[stencil.Variant]Table2Row{}
		}
		byKey[r.N][r.Variant] = r
	}
	for _, n := range ProblemSizes {
		s1, s2 := byKey[n][stencil.STEN1], byKey[n][stencil.STEN2]
		for i := range s1.Cells {
			if s1.Cells[i].P1+s1.Cells[i].P2 < 2 {
				continue // no communication to overlap
			}
			if s2.Cells[i].ElapsedMs > s1.Cells[i].ElapsedMs*1.001 {
				t.Errorf("N=%d config %d+%d: STEN-2 (%v) slower than STEN-1 (%v)",
					n, s1.Cells[i].P1, s1.Cells[i].P2, s2.Cells[i].ElapsedMs, s1.Cells[i].ElapsedMs)
			}
		}
	}
}

func TestFig3CurveShape(t *testing.T) {
	e := env(t)
	pts, err := Fig3(e, 600, stencil.STEN1)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 12 {
		t.Fatalf("points = %d", len(pts))
	}
	// Region A exists (adding processors helps at first)...
	if pts[0].SimulatedTcMs <= pts[len(pts)-1].SimulatedTcMs && pts[0].Region != "A" {
		t.Error("no region A found")
	}
	var minSeen bool
	for _, p := range pts {
		if p.Region == "min" {
			minSeen = true
		}
		if p.EstimatedTcMs <= 0 || p.SimulatedTcMs <= 0 {
			t.Errorf("p=%d: nonpositive Tc", p.Procs)
		}
	}
	if !minSeen {
		t.Error("no minimum marked")
	}
	// The model should track the simulator reasonably well overall.
	for _, p := range pts {
		if p.EstimateErrPct > 60 || p.EstimateErrPct < -60 {
			t.Errorf("p=%d: estimate off by %.1f%%", p.Procs, p.EstimateErrPct)
		}
	}
	out := renderFig3(pts, 600, stencil.STEN1)
	if !strings.Contains(out, "#") {
		t.Error("render lacks curve bars")
	}
}

func TestCostFitComparison(t *testing.T) {
	e := env(t)
	rows, router, err := CostFit(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no fits")
	}
	for _, r := range rows {
		if r.R2 < 0.99 {
			t.Errorf("%s/%s: poor fit R²=%v", r.Cluster, r.Topology, r.R2)
		}
	}
	if router.Ms <= 0 {
		t.Error("no router cost fitted")
	}
	out := renderCostFit(rows, router)
	if !strings.Contains(out, "router") {
		t.Error("render lacks router line")
	}
}

func TestOverheadWithinBound(t *testing.T) {
	e := env(t)
	rows, err := Overhead(e)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// Slope bisection pays ≤ 2 evaluations per halving: allow 3x the
		// K·log2(P) guide plus a constant.
		if float64(r.Evaluations) > 3*r.Bound+6 {
			t.Errorf("N=%d %s: %d evaluations vs bound %.1f", r.N, r.Variant, r.Evaluations, r.Bound)
		}
	}
	if out := renderOverhead(rows); !strings.Contains(out, "evaluations") {
		t.Error("render malformed")
	}
}

func TestGaussExperiment(t *testing.T) {
	e := env(t)
	g, err := Gauss(e, 64)
	if err != nil {
		t.Fatal(err)
	}
	if !g.MatchesSeq {
		t.Error("distributed elimination diverged from sequential")
	}
	if g.ResidualMax > 1e-9 {
		t.Errorf("residual %v", g.ResidualMax)
	}
	if g.Chosen.Total() >= 12 {
		t.Errorf("broadcast app should choose a small configuration, got %v", g.Chosen)
	}
	if !g.ChosenBeatsAll {
		t.Errorf("chosen %v (%.1f ms) lost to the full network (%.1f ms)", g.Chosen, g.ElapsedMs, g.FullNetworkMs)
	}
	if out := renderGauss(g); !strings.Contains(out, "broadcast") {
		t.Error("render malformed")
	}
}

func TestAblations(t *testing.T) {
	e := env(t)
	rows, err := Ablations(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("ablations = %d, want 5", len(rows))
	}
	byName := map[string]AblationRow{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	if r := byName["A1 heuristic-vs-oracle"]; r.Speedup < 1-1e-9 {
		t.Errorf("oracle worse than heuristic: %+v", r)
	}
	if r := byName["A2 bisect-vs-scan"]; r.Speedup < 1 {
		t.Errorf("bisection should use fewer evaluations: %+v", r)
	}
	if r := byName["A3 eq3-vs-equal"]; r.Speedup <= 1 {
		t.Errorf("Eq. 3 should beat equal decomposition: %+v", r)
	}
	if r := byName["A4 overlap"]; r.Speedup <= 1 {
		t.Errorf("STEN-2 should beat STEN-1: %+v", r)
	}
	if r := byName["A5 static-vs-dynamic"]; r.Speedup <= 1 {
		t.Errorf("dynamic should win under fluctuation: %+v", r)
	}
	if out := renderAblations(rows); !strings.Contains(out, "A3") {
		t.Error("render malformed")
	}
}

func TestFigures(t *testing.T) {
	e := env(t)
	f2, err := Fig2(e)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(f2, "partition vector") || !strings.Contains(f2, "p4") {
		t.Errorf("Fig2 output:\n%s", f2)
	}
	f1, err := Fig1()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(f1, "router") || !strings.Contains(f1, "RS-6000") {
		t.Errorf("Fig1 output:\n%s", f1)
	}
}

func TestTextTable(t *testing.T) {
	tt := newTextTable("a", "bb")
	tt.add("xxx")
	out := tt.render()
	if !strings.Contains(out, "xxx") || !strings.Contains(out, "bb") {
		t.Errorf("table output:\n%s", out)
	}
}

func TestAdaptiveExperiment(t *testing.T) {
	e := env(t)
	r, err := Adaptive(e, 200, 40)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Exact {
		t.Error("adaptive run not bit-exact")
	}
	if r.AdaptiveMs >= r.StaticMs {
		t.Errorf("adaptive %v not better than static %v", r.AdaptiveMs, r.StaticMs)
	}
	if r.Rebalances == 0 || r.MigratedRows == 0 {
		t.Errorf("no rebalancing recorded: %+v", r)
	}
	if out := renderAdaptive(r); !strings.Contains(out, "bit-exact") {
		t.Error("render malformed")
	}
}

func TestMetasystemExperiment(t *testing.T) {
	r, err := Metasystem(env(t), 1200)
	if err != nil {
		t.Fatal(err)
	}
	if r.Chosen.Clusters[0] != "paragon" || r.Chosen.Counts[0] == 0 {
		t.Errorf("multicomputer unused: %v", r.Chosen)
	}
	if r.PredictedTcMs >= r.WorkstationTc {
		t.Errorf("metasystem Tc %v not better than workstations %v", r.PredictedTcMs, r.WorkstationTc)
	}
	if out := renderMetasystem(r); !strings.Contains(out, "multicomputer") {
		t.Error("render malformed")
	}
}

func TestStartupExperiment(t *testing.T) {
	e := env(t)
	rows, err := Startup(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.MeasStartupMs <= 0 || r.EstStartupMs <= 0 {
			t.Errorf("N=%d: startup est %v meas %v", r.N, r.EstStartupMs, r.MeasStartupMs)
		}
		ratio := r.MeasStartupMs / r.EstStartupMs
		if ratio < 0.4 || ratio > 2.5 {
			t.Errorf("N=%d: estimate off by %vx", r.N, ratio)
		}
		if r.BreakEvenCycles <= 0 {
			t.Errorf("N=%d: break-even %d", r.N, r.BreakEvenCycles)
		}
	}
	if out := renderStartup(rows); !strings.Contains(out, "amortize") {
		t.Error("render malformed")
	}
}

func TestExtendedAblations(t *testing.T) {
	e := env(t)
	rows, err := ExtendedAblations(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// A7: the global search must be at least as good as the heuristic.
	last := rows[len(rows)-1]
	if last.Speedup < 1-1e-9 {
		t.Errorf("global search worse than heuristic: %+v", last)
	}
}

func TestImplSelectExperiment(t *testing.T) {
	e := env(t)
	rows, err := ImplSelect(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.OneDTcMs <= 0 || r.TwoDTcMs <= 0 || r.OneDSimMs <= 0 || r.TwoDSimMs <= 0 {
			t.Errorf("N=%d: degenerate row %+v", r.N, r)
		}
		if r.Winner != "1-D" && r.Winner != "2-D" {
			t.Errorf("N=%d: winner %q", r.N, r.Winner)
		}
	}
	if out := renderImplSelect(rows); !strings.Contains(out, "sim winner") {
		t.Error("render malformed")
	}
}

func TestParticlesExperiment(t *testing.T) {
	e := env(t)
	r, err := Particles(e)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Exact {
		t.Error("particle runs not bit-exact")
	}
	if r.WeightedMs >= r.UniformMs {
		t.Errorf("weighted %v not better than uniform %v on clumped density", r.WeightedMs, r.UniformMs)
	}
	if out := renderParticles(r); !strings.Contains(out, "density-weighted") {
		t.Error("render malformed")
	}
}

func TestSelectionCostExperiment(t *testing.T) {
	e := env(t)
	r, err := SelectionCost(e, 300)
	if err != nil {
		t.Fatal(err)
	}
	// Both strategies must land on near-minimal configurations...
	if r.PartitionPickMs > r.BenchmarkPickMs*1.1 {
		t.Errorf("partitioner's pick (%v ms) much worse than benchmarked pick (%v ms)",
			r.PartitionPickMs, r.BenchmarkPickMs)
	}
	// ...but the benchmarked strategy pays orders of magnitude more.
	if r.BenchmarkProbeMs < 3*r.BenchmarkPickMs {
		t.Errorf("probe cost %v should dwarf one run %v", r.BenchmarkProbeMs, r.BenchmarkPickMs)
	}
	if r.PartitionEvals > 20 {
		t.Errorf("partitioner used %d evaluations", r.PartitionEvals)
	}
	if out := renderSelectionCost(r); !strings.Contains(out, "probing") {
		t.Error("render malformed")
	}
}

func TestNoiseExperiment(t *testing.T) {
	e := env(t)
	rows, err := Noise(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Jitter != 0 || rows[0].FitR2 < 0.999999 {
		t.Errorf("noiseless fit should be exact: %+v", rows[0])
	}
	for _, r := range rows {
		if r.FitR2 < 0.99 {
			t.Errorf("jitter %v: fit collapsed to R²=%v", r.Jitter, r.FitR2)
		}
		if r.GapPct > 10 {
			t.Errorf("jitter %v: choice %v sits %.1f%% above the minimum", r.Jitter, r.Chosen, r.GapPct)
		}
	}
	if out := renderNoise(rows); !strings.Contains(out, "jitter") {
		t.Error("render malformed")
	}
}

func TestFaultTolExperiment(t *testing.T) {
	e := env(t)
	r, err := FaultTol(e, 96, 30)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Exact {
		t.Fatal("recovered grid does not match the sequential reference")
	}
	if r.VectorAfter[r.CrashRank] != 0 {
		t.Fatalf("crashed rank still owns rows after recovery: %v", r.VectorAfter)
	}
	if r.VectorAfter.Sum() != r.N {
		t.Fatalf("post-recovery vector sums to %d, want %d", r.VectorAfter.Sum(), r.N)
	}
	if r.RecoveryLatencyMs <= 0 {
		t.Fatalf("recovery latency = %v ms", r.RecoveryLatencyMs)
	}
	if r.RollbackCycle >= r.CrashCycle {
		t.Fatalf("rollback cycle %d not before crash cycle %d", r.RollbackCycle, r.CrashCycle)
	}
	if out := renderFaultTol(r); !strings.Contains(out, "recovery latency") {
		t.Error("render malformed")
	}
}

// TestHeldOutTwoRankSameSegment holds the two-rank charges on testbeds
// the estimator was not developed on: every two-rank STEN-1 configuration
// of the metasystem and Fig. 1 networks, fitted with commbench, is within
// 5 % of its time-only simulation at N = 60, 300 and 1200. A cluster's
// two ranks are charged its measured p = 2 stagger, and a pair across the
// router the pair's.
func TestHeldOutTwoRankSameSegment(t *testing.T) {
	ps, err := heldOutProbes()
	if err != nil {
		t.Fatal(err)
	}
	rows, err := measure(&Env{}, ps)
	if err != nil {
		t.Fatal(err)
	}
	same, crossing := 0, 0
	for _, r := range rows {
		if r.crossing {
			crossing++
		} else {
			same++
		}
		if res := trace.DeviationPct(r.pred.c, r.sim.c); math.Abs(res) > 5 {
			t.Errorf("%s N=%d %v: T_c predicted %.3f, simulated %.3f ms (%+.1f %%)", r.set, r.n, r.cfg, r.pred.c, r.sim.c, res)
		}
	}
	// Two testbeds of three clusters: three alone and three pairs each.
	if want := 2 * 3 * len(heldOutSizes); same != want || crossing != want {
		t.Errorf("%d same-segment and %d crossing rows, want %d of each", same, crossing, want)
	}
}

// TestResidualsMatchTable2: the residual table reads Table 2's 56 cells
// in Table 2's order and at Table 2's times, then 16 off-grid units whose
// compute fits inside their cycle.
func TestResidualsMatchTable2(t *testing.T) {
	e := env(t).Clone()
	e.Jobs = 2
	table2, err := Table2(e)
	if err != nil {
		t.Fatal(err)
	}
	res, err := table2Residuals(e, table2)
	if err != nil {
		t.Fatal(err)
	}
	rows := res.rows()
	per := len(Table2Configs)
	if len(rows) != len(table2)*per+16 {
		t.Fatalf("%d residual rows, want %d", len(rows), len(table2)*per+16)
	}
	for r, row := range table2 {
		for c, cell := range row.Cells {
			got := rows[r*per+c]
			if got.set != "table2" || got.n != row.N || got.v != row.Variant || got.cfg.Counts[0] != cell.P1 || got.cfg.Counts[1] != cell.P2 ||
				got.sim.c != cell.ElapsedMs/Iterations {
				t.Errorf("residual row %d is %+v, want Table 2's N=%d %s %d+%d at %v ms",
					r*per+c, got, row.N, row.Variant, cell.P1, cell.P2, cell.ElapsedMs)
			}
		}
	}
	for _, u := range rows[len(table2)*per:] {
		if u.set != "offgrid" || u.sim.c <= 0 || u.sim.comp <= 0 || u.sim.comp > u.sim.c {
			t.Errorf("off-grid unit %+v", u)
		}
	}
	if len(res.picks) != len(table2) {
		t.Fatalf("%d rows of picks, want %d", len(res.picks), len(table2))
	}
	if out := res.render(); !strings.Contains(out, "offgrid") || !strings.Contains(out, "exhaustive") ||
		!strings.Contains(out, "metasystem") || !strings.Contains(out, "across router") {
		t.Error("render malformed")
	}
}

// TestSingleClusterSTEN1WithinOnePercent: with the measured stagger, every
// single-cluster STEN-1 cell of Table 2 and of Fig. 3's curve at N ≥ 300
// is predicted within 1 % of its simulation.
func TestSingleClusterSTEN1WithinOnePercent(t *testing.T) {
	e := env(t)
	rows, err := Table2(e)
	if err != nil {
		t.Fatal(err)
	}
	cells := 0
	for _, r := range rows {
		if r.Variant != stencil.STEN1 || r.N < 300 {
			continue
		}
		est, err := core.NewEstimator(e.Net, e.Fitted, stencil.Annotations(r.N, r.Variant, Iterations))
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range r.Cells {
			if c.P2 != 0 {
				continue
			}
			pred, err := est.Estimate(PaperConfig(c.P1, c.P2))
			if err != nil {
				t.Fatal(err)
			}
			cells++
			if res := trace.DeviationPct(pred.ElapsedMs(Iterations), c.ElapsedMs); math.Abs(res) > 1 {
				t.Errorf("Table 2 N=%d %d+0: T_c residual %+.2f%%", r.N, c.P1, res)
			}
		}
	}
	pts, err := Fig3(e, 600, stencil.STEN1)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts[:6] { // 1+0 … 6+0
		cells++
		if math.Abs(p.EstimateErrPct) > 1 {
			t.Errorf("Fig. 3 N=600 %d+0: T_c residual %+.2f%%", p.Procs, p.EstimateErrPct)
		}
	}
	if cells != 3*4+6 {
		t.Errorf("%d cells, want 18", cells)
	}
}
