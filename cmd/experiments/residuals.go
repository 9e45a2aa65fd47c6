package main

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"

	"netpart/internal/balance"
	"netpart/internal/core"
	"netpart/internal/experiments"
	"netpart/internal/model"
	"netpart/internal/stencil"
	"netpart/internal/trace"
)

// The residual table is the diagnosis behind Table 2's misses: for each of
// its 56 cells and 16 off-grid units, the estimator's per-cycle T_comp,
// T_comm and T_c (Eq. 4–6, fitted constants) next to a time-only
// simulation's. The simulated terms are one rank's: the rank with the most
// simulated compute (the lowest such rank on a tie), whose neighbours wait
// for it and whose exchange time is therefore the least padded by waiting.
// T_comp is its simnet compute time and T_comm the exchange time the cycle
// sink reports for it (sends plus receive waits), both per cycle; T_c is
// the run's elapsed time per cycle.

// residualUnit is one simulated configuration.
type residualUnit struct {
	offgrid bool
	n       int
	v       stencil.Variant
	p1, p2  int
	vec     core.Vector // nil: the Eq. 3 vector (core.Decompose)
}

// terms are per-cycle milliseconds.
type terms struct{ comp, comm, c float64 }

type residualRow struct {
	residualUnit
	rank      int
	pred, sim terms
}

// exchangeSum is a cycle sink that adds up each rank's exchange time.
type exchangeSum struct {
	mu sync.Mutex
	ms []float64
}

func (s *exchangeSum) OnCycle(int, int, float64) {}

func (s *exchangeSum) OnExchange(task, _ int, ms float64) {
	s.mu.Lock()
	s.ms[task] += ms
	s.mu.Unlock()
}

// residualUnits lists Table 2's cells in its order, then 16 off-grid units.
// The off-grid units are drawn as the benchmark draws sim-paper's at seed
// 1994 (benchmark/gen.go, genOffgrid after the anchor's one draw): a size
// from the i-th of 16 equal slices of [40, 1400], any legal (P1, P2) on the
// paper testbed, alternating variants, and for every other pair of units a
// random valid vector in place of the Eq. 3 one.
func residualUnits() ([]residualUnit, error) {
	var units []residualUnit
	for _, n := range experiments.ProblemSizes {
		for _, v := range []stencil.Variant{stencil.STEN1, stencil.STEN2} {
			for _, c := range experiments.Table2Configs {
				units = append(units, residualUnit{n: n, v: v, p1: c.P1, p2: c.P2})
			}
		}
	}
	const offgrid, lo, hi = 16, 40, 1400
	rng := rand.New(rand.NewSource(1994))
	rng.Intn(5) // the benchmark's live-size jitter, drawn first
	for i := 0; i < offgrid; i++ {
		width := (hi - lo) / offgrid
		u := residualUnit{offgrid: true, n: lo + i*width + rng.Intn(width), v: stencil.Variant(i % 2)}
		u.p1 = 1 + rng.Intn(6)
		if u.p1 == 6 {
			u.p2 = rng.Intn(7)
		}
		if i/2%2 == 1 {
			vec, err := balance.EqualVector(u.n, u.p1+u.p2)
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
			u.vec = vec
		}
		units = append(units, u)
	}
	return units, nil
}

// residual predicts and simulates one unit.
func residual(env *experiments.Env, u residualUnit) (residualRow, error) {
	cfg := experiments.PaperConfig(u.p1, u.p2)
	vec := u.vec
	if vec == nil {
		var err error
		if vec, err = core.Decompose(env.Net, cfg, u.n, model.OpFloat); err != nil {
			return residualRow{}, err
		}
	}
	est, err := core.NewEstimator(env.Net, env.Fitted, stencil.Annotations(u.n, u.v, experiments.Iterations))
	if err != nil {
		return residualRow{}, err
	}
	pe, err := est.Estimate(cfg)
	if err != nil {
		return residualRow{}, err
	}
	sink := &exchangeSum{ms: make([]float64, len(vec))}
	res, err := stencil.Sim(env.Net, cfg, vec, u.v, u.n, experiments.Iterations,
		stencil.Options{TimeOnly: true, Cycles: sink})
	if err != nil {
		return residualRow{}, err
	}
	procs := res.Report.Procs
	rank := 0
	for r := range procs {
		if procs[r].ComputeMs > procs[rank].ComputeMs {
			rank = r
		}
	}
	const it = experiments.Iterations
	return residualRow{
		residualUnit: u, rank: rank,
		pred: terms{pe.TcompMs, pe.TcommMs, pe.TcMs},
		sim:  terms{procs[rank].ComputeMs / it, sink.ms[rank] / it, res.ElapsedMs / it},
	}, nil
}

// residuals runs every unit on the experiment engine's worker pool.
func residuals(env *experiments.Env) ([]residualRow, error) {
	units, err := residualUnits()
	if err != nil {
		return nil, err
	}
	rows := make([]residualRow, len(units))
	err = experiments.ParallelFor(env.Jobs, len(units), func(i int) error {
		row, err := residual(env.Clone(), units[i])
		rows[i] = row
		return err
	})
	return rows, err
}

// rowPicks is one Table 2 row's choices: the configuration the simulation
// measures fastest and the one the model ranks fastest, both over the
// seven measured configurations, and the picks of the paper's
// locality-first heuristic and of the exhaustive search over the same
// model.
type rowPicks struct {
	measured, model       residualRow
	heuristic, exhaustive core.Result
}

func picks(env *experiments.Env, rows []residualRow) ([]rowPicks, error) {
	var out []rowPicks
	per := len(experiments.Table2Configs)
	for i := 0; i+per <= len(rows) && !rows[i].offgrid; i += per {
		cells := rows[i : i+per]
		p := rowPicks{measured: cells[0], model: cells[0]}
		for _, c := range cells[1:] {
			if c.sim.c < p.measured.sim.c {
				p.measured = c
			}
			if c.pred.c < p.model.pred.c {
				p.model = c
			}
		}
		search := func(run func(*core.Estimator) (core.Result, error)) (core.Result, error) {
			est, err := core.NewEstimator(env.Net, env.Fitted, stencil.Annotations(cells[0].n, cells[0].v, experiments.Iterations))
			if err != nil {
				return core.Result{}, err
			}
			return run(est)
		}
		var err error
		if p.heuristic, err = search(core.Partition); err != nil {
			return nil, err
		}
		if p.exhaustive, err = search(core.PartitionExhaustive); err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

func renderResiduals(rows []residualRow, ps []rowPicks) string {
	var b strings.Builder
	b.WriteString("Per cycle, ms; resid% = (predicted - simulated) / simulated; sim is the rank with the most compute.\n" +
		"Simulated T_comm is sends plus receive waits: on STEN-2 only what the interior update does not hide.\n")
	t := experiments.NewTextTable("set", "N", "variant", "config", "vector", "rank",
		"Tcomp_pred", "Tcomp_sim", "resid%", "Tcomm_pred", "Tcomm_sim", "resid%", "Tc_pred", "Tc_sim", "resid%")
	for _, r := range rows {
		set, vec := "table2", "eq3"
		if r.offgrid {
			set = "offgrid"
		}
		if r.vec != nil {
			vec = "random"
		}
		t.Add(set, fmt.Sprint(r.n), r.v.String(), fmt.Sprintf("%d+%d", r.p1, r.p2), vec, fmt.Sprint(r.rank),
			fmt.Sprintf("%.2f", r.pred.comp), fmt.Sprintf("%.2f", r.sim.comp), fmt.Sprintf("%+.1f", trace.DeviationPct(r.pred.comp, r.sim.comp)),
			fmt.Sprintf("%.2f", r.pred.comm), fmt.Sprintf("%.2f", r.sim.comm), fmt.Sprintf("%+.1f", trace.DeviationPct(r.pred.comm, r.sim.comm)),
			fmt.Sprintf("%.2f", r.pred.c), fmt.Sprintf("%.2f", r.sim.c), fmt.Sprintf("%+.1f", trace.DeviationPct(r.pred.c, r.sim.c)))
	}
	b.WriteString(t.String())
	b.WriteString("\nPer Table 2 row: the fastest of the seven configurations as simulated and as predicted, and the searches' picks\n")
	t = experiments.NewTextTable("N", "variant", "sim min", "Tc_sim", "model min", "Tc_pred", "heuristic", "Tc_pred", "exhaustive", "Tc_pred")
	counts := func(r core.Result) string { return fmt.Sprintf("%d+%d", r.Config.Counts[0], r.Config.Counts[1]) }
	for _, p := range ps {
		t.Add(fmt.Sprint(p.measured.n), p.measured.v.String(),
			fmt.Sprintf("%d+%d", p.measured.p1, p.measured.p2), fmt.Sprintf("%.2f", p.measured.sim.c),
			fmt.Sprintf("%d+%d", p.model.p1, p.model.p2), fmt.Sprintf("%.2f", p.model.pred.c),
			counts(p.heuristic), fmt.Sprintf("%.2f", p.heuristic.TcMs),
			counts(p.exhaustive), fmt.Sprintf("%.2f", p.exhaustive.TcMs))
	}
	b.WriteString(t.String())
	return b.String()
}
