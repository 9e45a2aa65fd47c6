package experiments

import (
	"fmt"
	"math"

	"netpart/internal/balance"
	"netpart/internal/core"
	"netpart/internal/model"
	"netpart/internal/parallel"
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
	type rowSpec struct {
		n int
		v stencil.Variant
	}
	var specs []rowSpec
	for _, n := range ProblemSizes {
		for _, v := range []stencil.Variant{stencil.STEN1, stencil.STEN2} {
			specs = append(specs, rowSpec{n, v})
		}
	}

	// Stage 1 — predictions. Cheap cost-model searches (microseconds each),
	// run serially; they decide which extra simulator runs stage 2 needs.
	preds := make([]core.Result, len(specs))
	for i, s := range specs {
		est, err := core.NewEstimator(e.Net, e.Fitted, stencil.Annotations(s.n, s.v, Iterations))
		if err != nil {
			return nil, err
		}
		preds[i], err = core.Partition(est)
		if err != nil {
			return nil, err
		}
	}
	inMeasuredSet := func(pred core.Result) bool {
		for _, c := range Table2Configs {
			if c.P1 == pred.Config.Counts[0] && c.P2 == pred.Config.Counts[1] {
				return true
			}
		}
		return false
	}

	// Stage 2 — fan the independent simulator runs (the expensive part: 56
	// measured cells, the N=1200 equal-decomposition runs, and any
	// predicted-outside-the-set runs) out over the worker pool. Each unit
	// writes one index-addressed slot; nothing is shared between units.
	const (
		unitEqualDecomp = -1
		unitPredRun     = -2
	)
	type unit struct {
		row  int
		cell int // index into Table2Configs, or a unit* sentinel
	}
	var units []unit
	for r, s := range specs {
		for c := range Table2Configs {
			units = append(units, unit{r, c})
		}
		if s.n == 1200 {
			units = append(units, unit{r, unitEqualDecomp})
		}
		if !inMeasuredSet(preds[r]) {
			units = append(units, unit{r, unitPredRun})
		}
	}
	cellMs := make([][]float64, len(specs))
	for r := range specs {
		cellMs[r] = make([]float64, len(Table2Configs))
	}
	eqMs := make([]float64, len(specs))
	predRunMs := make([]float64, len(specs))
	err := parallel.For(e.workers(), len(units), func(i int) error {
		u := units[i]
		env := e.Clone()
		s := specs[u.row]
		switch u.cell {
		case unitEqualDecomp:
			cfg := PaperConfig(6, 6)
			eq, err := balance.EqualVector(s.n, 12)
			if err != nil {
				return err
			}
			ms, err := simMs(env.Net, cfg, eq, s.v, s.n, Iterations)
			if err != nil {
				return err
			}
			eqMs[u.row] = ms
		case unitPredRun:
			cfg := preds[u.row].Config
			vec, err := core.Decompose(env.Net, cfg, s.n, model.OpFloat)
			if err != nil {
				return err
			}
			ms, err := simMs(env.Net, cfg, vec, s.v, s.n, Iterations)
			if err != nil {
				return err
			}
			predRunMs[u.row] = ms
		default:
			c := Table2Configs[u.cell]
			cfg := PaperConfig(c.P1, c.P2)
			vec, err := core.Decompose(env.Net, cfg, s.n, model.OpFloat)
			if err != nil {
				return err
			}
			ms, err := simMs(env.Net, cfg, vec, s.v, s.n, Iterations)
			if err != nil {
				return fmt.Errorf("experiments: N=%d %s (%d,%d): %w", s.n, s.v, c.P1, c.P2, err)
			}
			cellMs[u.row][u.cell] = ms
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Stage 3 — serial assembly in the original order, replicating the
	// serial code's MinTracker observation sequence exactly.
	var rows []Table2Row
	for r, s := range specs {
		row := Table2Row{N: s.n, Variant: s.v}
		pred := preds[r]
		var min trace.MinTracker
		for ci, c := range Table2Configs {
			cell := Table2Cell{P1: c.P1, P2: c.P2, ElapsedMs: cellMs[r][ci]}
			cell.Predicted = c.P1 == pred.Config.Counts[0] && c.P2 == pred.Config.Counts[1]
			min.Observe(len(row.Cells), cell.ElapsedMs)
			row.Cells = append(row.Cells, cell)
		}
		row.Cells[min.Index()].MeasuredMin = true
		// Gap between the predicted configuration and the measured
		// minimum. When the prediction is outside the measured set
		// (possible: the heuristic can choose e.g. 6+5), stage 2 measured it.
		predMs := math.Inf(1)
		for _, c := range row.Cells {
			if c.Predicted {
				predMs = c.ElapsedMs
			}
		}
		if math.IsInf(predMs, 1) {
			predMs = predRunMs[r]
			min.Observe(len(row.Cells), predMs)
		}
		row.PredictedGapPct = trace.DeviationPct(predMs, min.Min())
		// Equal-decomposition comparison at N=1200 on the full network.
		if s.n == 1200 {
			row.EqualDecompMs = eqMs[r]
		}
		pm := paperTable2Min[s.n][s.v]
		row.PaperMinP1, row.PaperMinP2 = pm[0], pm[1]
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderTable2 prints the measured grid with the paper's column layout:
// the measured minimum is suffixed with '*', the algorithm's prediction
// with 'p' (both on the same cell reproduces the paper's claim).
func RenderTable2(rows []Table2Row) string {
	headers := []string{"N", "variant"}
	for _, c := range Table2Configs {
		headers = append(headers, fmt.Sprintf("%d+%d", c.P1, c.P2))
	}
	headers = append(headers, "equal(6+6)", "gap%")
	t := NewTextTable(headers...)
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
		t.Add(cells...)
	}
	return t.String()
}
