package experiments

import (
	"fmt"
	"math"

	"netpart/internal/balance"
	"netpart/internal/core"
	"netpart/internal/cost"
	"netpart/internal/stencil"
	"netpart/internal/trace"
)

// Table2Cell is one measured configuration for one (N, variant).
type Table2Cell struct {
	P1, P2 int
	// ElapsedMs is the simulated elapsed time for 10 iterations.
	ElapsedMs float64
	// MeasuredMin marks the fastest of the measured configurations.
	MeasuredMin bool
	// Predicted marks the configuration the partitioning algorithm chose
	// (the asterisk of Table 2).
	Predicted bool
	// resid is the cell's E29 reading: its fitted estimate against the
	// run that timed ElapsedMs.
	resid residual
}

// Table2Row reproduces one row of Table 2.
type Table2Row struct {
	N       int
	Variant stencil.Variant
	Cells   []Table2Cell
	// EqualDecompMs is the 6+6 equal-decomposition comparison the paper
	// reports for N=1200 (parenthesized values); zero when not measured.
	EqualDecompMs float64
	// PredictedGapPct is how far the predicted configuration's measured
	// time is above the measured minimum (0 = the prediction was the
	// minimum).
	PredictedGapPct float64
	// PaperMinConfig is the configuration the paper's Table 2 marks with
	// an asterisk.
	PaperMinP1, PaperMinP2 int
}

// paperTable2Min records the asterisked (predicted-minimum) configuration
// of Table 2 as published.
var paperTable2Min = map[int]map[stencil.Variant][2]int{
	60:   {stencil.STEN1: {2, 0}, stencil.STEN2: {1, 0}},
	300:  {stencil.STEN1: {6, 0}, stencil.STEN2: {6, 2}},
	600:  {stencil.STEN1: {6, 4}, stencil.STEN2: {6, 6}},
	1200: {stencil.STEN1: {6, 6}, stencil.STEN2: {6, 6}},
}

// Table2 measures every configuration of Table 2 on the simulator and
// overlays the partitioning algorithm's prediction (computed from the
// fitted cost table — the full honest pipeline).
func Table2(e *Env) ([]Table2Row, error) {
	// Stage 1 — the decisions. Cheap cost-model searches (microseconds
	// each), run serially; they decide which extra simulator runs stage 2
	// needs.
	var rows []Table2Row
	var preds []core.Result
	for _, n := range ProblemSizes {
		for _, v := range variants {
			pred, err := decide(e.Net, e.Fitted, stencil.Annotations(n, v, Iterations), core.Partition)
			if err != nil {
				return nil, err
			}
			pm := paperTable2Min[n][v]
			rows = append(rows, Table2Row{N: n, Variant: v, PaperMinP1: pm[0], PaperMinP2: pm[1]})
			preds = append(preds, pred[0])
		}
	}
	predicted := func(r, p1, p2 int) bool {
		return p1 == preds[r].Config.Counts[0] && p2 == preds[r].Config.Counts[1]
	}

	// Stage 2 — the simulator runs, the expensive part, fanned out: 56
	// measured cells, each predicted from the fitted table too, the N=1200
	// equal-decomposition runs, and any prediction outside the measured set
	// (possible: the heuristic can choose e.g. 6+5).
	const (
		unitEqualDecomp = -1
		unitPredRun     = -2
	)
	type unit struct {
		row, cell int // cell: an index into Table2Configs, or a unit* sentinel
		tbl       *cost.Table
		cfg       cost.Config
		vec       core.Vector
	}
	var units []unit
	for r, row := range rows {
		inSet := false
		for c, pc := range Table2Configs {
			units = append(units, unit{r, c, e.Fitted, PaperConfig(pc.P1, pc.P2), nil})
			inSet = inSet || predicted(r, pc.P1, pc.P2)
		}
		if row.N == 1200 {
			eq, err := balance.EqualVector(row.N, 12)
			if err != nil {
				return nil, err
			}
			units = append(units, unit{r, unitEqualDecomp, nil, PaperConfig(6, 6), eq})
		}
		if !inSet {
			units = append(units, unit{r, unitPredRun, nil, preds[r].Config, nil})
		}
	}
	type out struct {
		ms    float64
		resid residual
	}
	outs, err := fanOut(e, len(units), func(env *Env, i int) (out, error) {
		u, row := units[i], rows[units[i].row]
		pred, r, err := step(env.Net, u.tbl, row.N, row.Variant, u.cfg, u.vec)
		if err != nil {
			return out{}, fmt.Errorf("experiments: N=%d %s %v: %w", row.N, row.Variant, u.cfg, err)
		}
		return out{r.ms, r.read(pred.Estimate)}, nil
	})
	if err != nil {
		return nil, err
	}

	// Stage 3 — serial assembly in the original order.
	predRunMs := make([]float64, len(rows))
	for i, u := range units {
		row := &rows[u.row]
		switch u.cell {
		case unitEqualDecomp:
			row.EqualDecompMs = outs[i].ms
		case unitPredRun:
			predRunMs[u.row] = outs[i].ms
		default:
			c := Table2Configs[u.cell]
			row.Cells = append(row.Cells, Table2Cell{P1: c.P1, P2: c.P2, ElapsedMs: outs[i].ms,
				Predicted: predicted(u.row, c.P1, c.P2), resid: outs[i].resid})
		}
	}
	for r := range rows {
		row := &rows[r]
		var min trace.MinTracker
		predMs := math.Inf(1)
		for i, c := range row.Cells {
			min.Observe(i, c.ElapsedMs)
			if c.Predicted {
				predMs = c.ElapsedMs
			}
		}
		row.Cells[min.Index()].MeasuredMin = true
		// Gap between the predicted configuration and the measured
		// minimum; stage 2 measured a prediction outside the set.
		if math.IsInf(predMs, 1) {
			predMs = predRunMs[r]
			min.Observe(len(row.Cells), predMs)
		}
		row.PredictedGapPct = trace.DeviationPct(predMs, min.Min())
	}
	return rows, nil
}

// renderTable2 prints the measured grid with the paper's column layout:
// the measured minimum is suffixed with '*', the algorithm's prediction
// with 'p' (both on the same cell reproduces the paper's claim).
func renderTable2(rows []Table2Row) string {
	headers := []string{"N", "variant"}
	for _, c := range Table2Configs {
		headers = append(headers, fmt.Sprintf("%d+%d", c.P1, c.P2))
	}
	headers = append(headers, "equal(6+6)", "gap%")
	t := newTextTable(headers...)
	for _, r := range rows {
		cells := []string{fmt.Sprint(r.N), r.Variant.String()}
		for _, c := range r.Cells {
			s := fmt.Sprintf("%.0f", c.ElapsedMs)
			if c.MeasuredMin {
				s += "*"
			}
			if c.Predicted {
				s += "p"
			}
			cells = append(cells, s)
		}
		eq := "-"
		if r.EqualDecompMs > 0 {
			eq = fmt.Sprintf("%.0f", r.EqualDecompMs)
		}
		cells = append(cells, eq, fmt.Sprintf("%.1f", r.PredictedGapPct))
		t.add(cells...)
	}
	return t.render()
}
