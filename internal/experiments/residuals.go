package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"netpart/internal/balance"
	"netpart/internal/commbench"
	"netpart/internal/core"
	"netpart/internal/cost"
	"netpart/internal/model"
	"netpart/internal/stencil"
	"netpart/internal/topo"
	"netpart/internal/trace"
)

// E29's residual table is the diagnosis behind Table 2's misses: for each
// of its 56 cells, as Table2 predicted and simulated them, and for 16
// off-grid units, the estimator's per-cycle T_comp, T_comm and T_c (Eq.
// 4–6, fitted constants) next to a time-only simulation's (see residual).
// Then, per Table 2 row, the fastest configuration as simulated and as
// predicted and the searches' picks; then every two-rank STEN-1
// configuration on two testbeds the estimator was not developed on.

// A probe is one configuration E29 predicts and simulates beyond Table 2's
// cells: an off-grid unit on the paper testbed, or a held-out two-rank
// STEN-1 configuration.
type probe struct {
	set      string // "offgrid", or the held-out testbed: "metasystem", "fig1"
	net      *model.Network
	tbl      *cost.Table
	n        int
	v        stencil.Variant
	cfg      cost.Config
	vec      core.Vector // nil: the Eq. 3 vector
	crossing bool        // held out: one rank in each of two clusters, across the router
	residual
}

// heldOutSizes are the problem sizes of the held-out two-rank rows.
var heldOutSizes = []int{60, 300, 1200}

// offgridProbes are 16 units drawn as the benchmark draws sim-paper's at
// seed 1994 (benchmark/gen.go, genOffgrid after the anchor's one draw): a
// size from the i-th of 16 equal slices of [40, 1400], any legal (P1, P2)
// on the paper testbed, alternating variants, and for every other pair of
// units a random valid vector in place of the Eq. 3 one.
func offgridProbes(e *Env) ([]probe, error) {
	const offgrid, lo, hi = 16, 40, 1400
	var ps []probe
	rng := rand.New(rand.NewSource(1994))
	rng.Intn(5) // the benchmark's live-size jitter, drawn first
	for i := 0; i < offgrid; i++ {
		width := (hi - lo) / offgrid
		p := probe{set: "offgrid", net: e.Net, tbl: e.Fitted, n: lo + i*width + rng.Intn(width), v: stencil.Variant(i % 2)}
		p1, p2 := 1+rng.Intn(6), 0
		if p1 == 6 {
			p2 = rng.Intn(7)
		}
		p.cfg = PaperConfig(p1, p2)
		if i/2%2 == 1 {
			vec, err := balance.EqualVector(p.n, p1+p2)
			if err != nil {
				return nil, err
			}
			for r := 0; r+1 < len(vec); r++ {
				if vec[r] > 1 {
					d := rng.Intn(vec[r])
					vec[r] -= d
					vec[r+1] += d
				}
			}
			p.vec = vec
		}
		ps = append(ps, p)
	}
	return ps, nil
}

// heldOutProbes fits the metasystem testbed (E10) and the Fig. 1 network
// with commbench, as NewEnv fits the paper's, and lists every two-rank
// STEN-1 configuration on them at heldOutSizes: each cluster alone at two
// ranks, then one rank in each of two clusters.
func heldOutProbes() ([]probe, error) {
	var ps []probe
	for _, bed := range []struct {
		name string
		net  *model.Network
	}{{"metasystem", model.MetasystemTestbed()}, {"fig1", model.Figure1Network()}} {
		bench, err := commbench.Run(bed.net, []topo.Topology{topo.OneD{}}, commbench.DefaultGrid())
		if err != nil {
			return nil, err
		}
		k := len(bed.net.Clusters)
		names := make([]string, k)
		for i, c := range bed.net.Clusters {
			names[i] = c.Name
		}
		var configs [][]int // each cluster alone, then each pair across the router
		for i := range names {
			counts := make([]int, k)
			counts[i] = 2
			configs = append(configs, counts)
		}
		for i := range names {
			for j := i + 1; j < k; j++ {
				counts := make([]int, k)
				counts[i], counts[j] = 1, 1
				configs = append(configs, counts)
			}
		}
		for _, n := range heldOutSizes {
			for c, counts := range configs {
				ps = append(ps, probe{set: bed.name, net: bed.net, tbl: bench.Table, n: n, v: stencil.STEN1,
					cfg: cost.Config{Clusters: names, Counts: counts}, crossing: c >= k})
			}
		}
	}
	return ps, nil
}

// measure predicts and simulates every probe on the Env's worker pool.
func measure(e *Env, ps []probe) ([]probe, error) {
	return fanOut(e, len(ps), func(_ *Env, i int) (probe, error) {
		p := ps[i]
		pred, r, err := step(p.net, p.tbl, p.n, p.v, p.cfg, p.vec)
		if err != nil {
			return p, err
		}
		p.residual = r.read(pred.Estimate)
		return p, nil
	})
}

// residuals is E29: Table 2's rows, per row the heuristic's and the
// exhaustive search's decisions, and the measured probes, off-grid first.
type residuals struct {
	table2 []Table2Row
	picks  [][]core.Result
	probes []probe
}

// table2Residuals builds E29 on the rows Table2 returned, simulating none
// of their cells again.
func table2Residuals(e *Env, table2 []Table2Row) (*residuals, error) {
	offgrid, err := offgridProbes(e)
	if err != nil {
		return nil, err
	}
	held, err := heldOutProbes()
	if err != nil {
		return nil, err
	}
	out := &residuals{table2: table2}
	if out.probes, err = measure(e, append(offgrid, held...)); err != nil {
		return nil, err
	}
	for _, row := range table2 {
		res, err := decide(e.Net, e.Fitted, stencil.Annotations(row.N, row.Variant, Iterations), core.Partition, core.PartitionExhaustive)
		if err != nil {
			return nil, err
		}
		out.picks = append(out.picks, res)
	}
	return out, nil
}

// rows lists the first table's rows: Table 2's cells in its order, then
// the off-grid probes.
func (r *residuals) rows() []probe {
	var rows []probe
	for _, row := range r.table2 {
		for _, c := range row.Cells {
			rows = append(rows, probe{set: "table2", n: row.N, v: row.Variant, cfg: PaperConfig(c.P1, c.P2), residual: c.resid})
		}
	}
	for _, p := range r.probes {
		if p.set == "offgrid" {
			rows = append(rows, p)
		}
	}
	return rows
}

func (r *residuals) render() string {
	var b strings.Builder
	b.WriteString("Per cycle, ms; resid% = (predicted - simulated) / simulated; sim is the rank with the most compute.\n" +
		"Simulated T_comm is sends plus receive waits: on STEN-2 only what the interior update does not hide.\n")
	pct := func(pred, sim float64) string { return fmt.Sprintf("%+.1f", trace.DeviationPct(pred, sim)) }
	counts := func(cfg cost.Config) string { return fmt.Sprintf("%d+%d", cfg.Counts[0], cfg.Counts[1]) }
	t := newTextTable("set", "N", "variant", "config", "vector", "rank",
		"Tcomp_pred", "Tcomp_sim", "resid%", "Tcomm_pred", "Tcomm_sim", "resid%", "Tc_pred", "Tc_sim", "resid%")
	for _, p := range r.rows() {
		vec := "eq3"
		if p.vec != nil {
			vec = "random"
		}
		t.add(p.set, fmt.Sprint(p.n), p.v.String(), counts(p.cfg), vec, fmt.Sprint(p.rank),
			fmt.Sprintf("%.2f", p.pred.comp), fmt.Sprintf("%.2f", p.sim.comp), pct(p.pred.comp, p.sim.comp),
			fmt.Sprintf("%.2f", p.pred.comm), fmt.Sprintf("%.2f", p.sim.comm), pct(p.pred.comm, p.sim.comm),
			fmt.Sprintf("%.2f", p.pred.c), fmt.Sprintf("%.2f", p.sim.c), pct(p.pred.c, p.sim.c))
	}
	b.WriteString(t.render())
	b.WriteString("\nPer Table 2 row: the fastest of the seven configurations as simulated and as predicted, and the searches' picks\n")
	t = newTextTable("N", "variant", "sim min", "Tc_sim", "model min", "Tc_pred", "heuristic", "Tc_pred", "exhaustive", "Tc_pred")
	for i, row := range r.table2 {
		measured, modeled := row.Cells[0], row.Cells[0]
		for _, c := range row.Cells[1:] {
			if c.resid.sim.c < measured.resid.sim.c {
				measured = c
			}
			if c.resid.pred.c < modeled.resid.pred.c {
				modeled = c
			}
		}
		heur, exh := r.picks[i][0], r.picks[i][1]
		t.add(fmt.Sprint(row.N), row.Variant.String(),
			fmt.Sprintf("%d+%d", measured.P1, measured.P2), fmt.Sprintf("%.2f", measured.resid.sim.c),
			fmt.Sprintf("%d+%d", modeled.P1, modeled.P2), fmt.Sprintf("%.2f", modeled.resid.pred.c),
			counts(heur.Config), fmt.Sprintf("%.2f", heur.TcMs), counts(exh.Config), fmt.Sprintf("%.2f", exh.TcMs))
	}
	b.WriteString(t.render())
	b.WriteString("\nHeld out: every two-rank STEN-1 configuration on the metasystem (E10) and Fig. 1 networks, each fitted by commbench\n")
	t = newTextTable("testbed", "N", "config", "pair", "Tc_pred", "Tc_sim", "resid%")
	for _, p := range r.probes {
		if p.set == "offgrid" {
			continue
		}
		pair := "one segment"
		if p.crossing {
			pair = "across router"
		}
		t.add(p.set, fmt.Sprint(p.n), p.cfg.String(), pair,
			fmt.Sprintf("%.2f", p.pred.c), fmt.Sprintf("%.2f", p.sim.c), pct(p.pred.c, p.sim.c))
	}
	b.WriteString(t.render())
	return b.String()
}
