package experiments

import (
	"fmt"
	"math"

	"netpart/internal/balance"
	"netpart/internal/core"
	"netpart/internal/cost"
	"netpart/internal/gauss"
	"netpart/internal/model"
	"netpart/internal/stencil"
	"netpart/internal/topo"
)

// CostFitRow compares one fitted constant set against the paper's.
type CostFitRow struct {
	Cluster        string
	Topology       string
	Fitted         cost.Params
	Paper          cost.Params
	R2             float64
	HavePaperModel bool
}

// CostFit reproduces the Section 6.0 cost-constant table: the fitted Eq. 1
// models from benchmarking the simulator, next to the paper's published
// constants where they exist (1-D only), for the paper's two topologies,
// the stencils' 1-D and Gaussian elimination's broadcast. The Env's 2-D
// fit, which only E12 prices, is not in it.
func CostFit(e *Env) ([]CostFitRow, cost.PerByte, error) {
	var rows []CostFitRow
	for _, f := range e.Fits {
		if f.Topology == (topo.Mesh2D{}).Name() {
			continue
		}
		row := CostFitRow{
			Cluster: f.Cluster, Topology: f.Topology,
			Fitted: f.Params, R2: f.Quality.R2,
		}
		if p, err := e.Paper.Comm(f.Cluster, f.Topology); err == nil {
			row.Paper = p
			row.HavePaperModel = true
		}
		rows = append(rows, row)
	}
	router := e.Fitted.Router(model.Sparc2Cluster, model.IPCCluster)
	return rows, router, nil
}

// renderCostFit prints the comparison.
func renderCostFit(rows []CostFitRow, router cost.PerByte) string {
	t := newTextTable("cluster", "topology", "c1", "c2", "c3", "c4", "R2", "paper:c2", "paper:c4")
	for _, r := range rows {
		pc2, pc4 := "-", "-"
		if r.HavePaperModel {
			pc2 = fmt.Sprintf("%.4g", r.Paper.C2)
			pc4 = fmt.Sprintf("%.4g", r.Paper.C4)
		}
		t.add(r.Cluster, r.Topology,
			fmt.Sprintf("%.4g", r.Fitted.C1), fmt.Sprintf("%.4g", r.Fitted.C2),
			fmt.Sprintf("%.4g", r.Fitted.C3), fmt.Sprintf("%.4g", r.Fitted.C4),
			fmt.Sprintf("%.4f", r.R2), pc2, pc4)
	}
	return t.render() +
		fmt.Sprintf("router: fitted %.6f ms/byte (paper 0.0006)\n", router.Ms)
}

// OverheadRow records the search cost for one problem instance.
type OverheadRow struct {
	N           int
	Variant     stencil.Variant
	Evaluations int
	// Bound is the paper's K·log2(P) guide value.
	Bound float64
}

// Overhead verifies the O(K·log2 P) claim of Section 6.0 by counting
// Eq. 3/6 recomputations for each problem size.
func Overhead(e *Env) ([]OverheadRow, error) {
	k := float64(len(e.Net.Clusters))
	p := float64(e.Net.TotalProcs())
	var rows []OverheadRow
	for _, n := range ProblemSizes {
		for _, v := range variants {
			res, err := decide(e.Net, e.Fitted, stencil.Annotations(n, v, Iterations), core.Partition)
			if err != nil {
				return nil, err
			}
			rows = append(rows, OverheadRow{
				N: n, Variant: v,
				Evaluations: res[0].Evaluations,
				Bound:       k * math.Log2(p),
			})
		}
	}
	return rows, nil
}

// renderOverhead prints the overhead table.
func renderOverhead(rows []OverheadRow) string {
	t := newTextTable("N", "variant", "evaluations", "K·log2(P)")
	for _, r := range rows {
		t.add(fmt.Sprint(r.N), r.Variant.String(),
			fmt.Sprint(r.Evaluations), fmt.Sprintf("%.1f", r.Bound))
	}
	return t.render()
}

// GaussResult is the E8 experiment: partitioning and executing the
// non-uniform Gaussian elimination application.
type GaussResult struct {
	N              int
	Chosen         cost.Config
	PredictedTcMs  float64
	ElapsedMs      float64
	ResidualMax    float64
	MatchesSeq     bool
	StencilChoice  cost.Config // same-N stencil choice, for contrast
	FullNetworkMs  float64     // elapsed when forced onto all 12 processors
	ChosenBeatsAll bool
}

// Gauss runs the partitioning method on the elimination annotations, then
// executes the chosen configuration and (for contrast) the full network.
func Gauss(e *Env, n int) (*GaussResult, error) {
	picks, err := decide(e.Net, e.Fitted, gauss.Annotations(n), core.Partition)
	if err != nil {
		return nil, err
	}
	// Contrast: the stencil of the same size uses more of the network.
	contrast, err := decide(e.Net, e.Fitted, stencil.Annotations(n, stencil.STEN1, Iterations), core.Partition)
	if err != nil {
		return nil, err
	}
	res := picks[0]
	s := gauss.NewSystem(n, 1994)
	want, err := gauss.Sequential(s)
	if err != nil {
		return nil, err
	}
	sim, err := gauss.RunSim(e.Net, res.Config, res.Vector, s)
	if err != nil {
		return nil, err
	}
	matches := true
	for i := range want {
		if sim.X[i] != want[i] {
			matches = false
			break
		}
	}
	out := &GaussResult{
		N: n, Chosen: res.Config,
		PredictedTcMs: res.TcMs,
		ElapsedMs:     sim.ElapsedMs,
		ResidualMax:   gauss.Residual(s, sim.X),
		MatchesSeq:    matches,
		StencilChoice: contrast[0].Config,
	}
	// Force the full network.
	full := PaperConfig(6, 6)
	vec, err := core.Decompose(e.Net, full, n, model.OpFloat)
	if err != nil {
		return nil, err
	}
	fullRun, err := gauss.RunSim(e.Net, full, vec, s)
	if err != nil {
		return nil, err
	}
	out.FullNetworkMs = fullRun.ElapsedMs
	out.ChosenBeatsAll = out.ElapsedMs <= fullRun.ElapsedMs
	return out, nil
}

// renderGauss prints the E8 summary.
func renderGauss(g *GaussResult) string {
	return fmt.Sprintf(`Gaussian elimination with partial pivoting (N=%d, broadcast topology)
  chosen configuration : %v  (predicted Tc %.2f ms)
  simulated elapsed    : %.1f ms   (all 12 processors: %.1f ms; chosen wins: %v)
  matches sequential   : %v  (max residual %.2e)
  stencil contrast     : same-size stencil chooses %v — the bandwidth-limited
                         broadcast topology admits far less parallelism
`, g.N, g.Chosen, g.PredictedTcMs, g.ElapsedMs, g.FullNetworkMs, g.ChosenBeatsAll,
		g.MatchesSeq, g.ResidualMax, g.StencilChoice)
}

// AblationRow is one ablation comparison.
type AblationRow struct {
	Name    string
	Detail  string
	BaseMs  float64
	AltMs   float64
	Speedup float64 // BaseMs / AltMs
}

// Ablations runs the design-choice studies of DESIGN.md (A1-A4) at N=600,
// as four independent units writing fixed row slots. The static-vs-dynamic
// comparison of §2.0 is E9 (Adaptive), on the real stencil.
func Ablations(e *Env) ([]AblationRow, error) {
	return ablate(e, ablationOracle, ablationScan, ablationDecomp, ablationOverlap)
}

// ablate runs each study as one unit on the worker pool.
func ablate(e *Env, studies ...func(*Env) (AblationRow, error)) ([]AblationRow, error) {
	return fanOut(e, len(studies), func(env *Env, i int) (AblationRow, error) { return studies[i](env) })
}

// ablationOracle is A1: locality-first heuristic vs exhaustive oracle
// (estimated Tc).
func ablationOracle(e *Env) (AblationRow, error) {
	res, err := decide(e.Net, e.Fitted, stencil.Annotations(600, stencil.STEN1, Iterations), core.Partition, core.PartitionExhaustive)
	if err != nil {
		return AblationRow{}, err
	}
	heur, oracle := res[0], res[1]
	return AblationRow{
		Name:   "A1 heuristic-vs-oracle",
		Detail: fmt.Sprintf("heuristic %v (%d evals) vs oracle %v (%d evals)", heur.Config, heur.Evaluations, oracle.Config, oracle.Evaluations),
		BaseMs: heur.TcMs, AltMs: oracle.TcMs, Speedup: heur.TcMs / oracle.TcMs,
	}, nil
}

// ablationScan is A2: bisection vs linear scan (search cost in evaluations).
func ablationScan(e *Env) (AblationRow, error) {
	res, err := decide(e.Net, e.Fitted, stencil.Annotations(600, stencil.STEN1, Iterations), core.Partition, core.PartitionLinear)
	if err != nil {
		return AblationRow{}, err
	}
	heur, lin := res[0], res[1]
	return AblationRow{
		Name:   "A2 bisect-vs-scan",
		Detail: fmt.Sprintf("same choice %v; evaluations %d vs %d", lin.Config, heur.Evaluations, lin.Evaluations),
		BaseMs: float64(heur.Evaluations), AltMs: float64(lin.Evaluations),
		Speedup: float64(lin.Evaluations) / float64(heur.Evaluations),
	}, nil
}

// ablationDecomp is A3: Eq. 3 heterogeneous decomposition vs equal split
// on 6+6.
func ablationDecomp(e *Env) (AblationRow, error) {
	const n = 600
	eq, err := balance.EqualVector(n, 12)
	if err != nil {
		return AblationRow{}, err
	}
	_, bal, err := step(e.Net, nil, n, stencil.STEN1, PaperConfig(6, 6), nil)
	if err != nil {
		return AblationRow{}, err
	}
	_, equal, err := step(e.Net, nil, n, stencil.STEN1, PaperConfig(6, 6), eq)
	if err != nil {
		return AblationRow{}, err
	}
	return AblationRow{
		Name:   "A3 eq3-vs-equal",
		Detail: "STEN-1 on 6+6: Eq. 3 decomposition vs equal rows",
		BaseMs: equal.ms, AltMs: bal.ms, Speedup: equal.ms / bal.ms,
	}, nil
}

// ablationOverlap is A4: STEN-2 overlap vs STEN-1 at the STEN-2-chosen
// configuration.
func ablationOverlap(e *Env) (AblationRow, error) {
	_, r1, err := step(e.Net, nil, 600, stencil.STEN1, PaperConfig(6, 6), nil)
	if err != nil {
		return AblationRow{}, err
	}
	_, r2, err := step(e.Net, nil, 600, stencil.STEN2, PaperConfig(6, 6), nil)
	if err != nil {
		return AblationRow{}, err
	}
	return AblationRow{
		Name:   "A4 overlap",
		Detail: "6+6: STEN-1 vs STEN-2 (border sends overlapped)",
		BaseMs: r1.ms, AltMs: r2.ms, Speedup: r1.ms / r2.ms,
	}, nil
}

// renderAblations prints the ablation table.
func renderAblations(rows []AblationRow) string {
	t := newTextTable("ablation", "base", "alternative", "ratio", "detail")
	for _, r := range rows {
		t.add(r.Name, fmt.Sprintf("%.1f", r.BaseMs), fmt.Sprintf("%.1f", r.AltMs),
			fmt.Sprintf("%.2f", r.Speedup), r.Detail)
	}
	return t.render()
}
