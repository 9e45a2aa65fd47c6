package experiments

import "fmt"

// A section is one titled block of the report cmd/experiments prints.
type section struct {
	Key   string // the -experiment value that selects it ("all" selects every one)
	ID    string // names its wall-time gauge, experiments.<ID>_ms
	Title string
	Run   func() (string, error) // the experiment, rendered
}

// Sections lists the report's sections in print order, each run on e.
// constants names the cost table E1 partitions with ("paper" or
// "fitted"), and n is the problem size of E3 and E8. E29 shares E2's key
// and prints last: it reads the Table 2 rows E2's run simulated. A caller
// that reads only keys and IDs may pass a nil e.
func Sections(e *Env, constants string, n int) []section {
	var table2 []Table2Row
	return []section{
		{"costfit", "e4", "E4: fitted communication cost constants (paper §6)", func() (string, error) {
			rows, router, err := CostFit(e)
			return renderCostFit(rows, router), err
		}},
		{"table1", "e1", fmt.Sprintf("E1: Table 1 — partitioning algorithm output (%s constants)", constants), func() (string, error) {
			tbl := e.Paper
			if constants == "fitted" {
				tbl = e.Fitted
			}
			return rendered(renderTable1)(Table1(e, tbl))
		}},
		{"table2", "e2", "E2: Table 2 — measured elapsed times (ms, 10 iterations); * = measured min, p = predicted", func() (string, error) {
			var err error
			table2, err = Table2(e)
			return rendered(renderTable2)(table2, err)
		}},
		{"fig3", "e3", fmt.Sprintf("E3: Fig. 3 — T_c vs processors (N=%d)", n), func() (string, error) {
			out := ""
			for _, v := range variants {
				pts, err := Fig3(e, n, v)
				if err != nil {
					return "", err
				}
				out += renderFig3(pts, n, v)
			}
			return out, nil
		}},
		{"fig2", "e5", "E5: Fig. 2 — partition vector example", func() (string, error) { return Fig2(e) }},
		{"fig1", "e6", "E6: Fig. 1 — example heterogeneous network", Fig1},
		{"overhead", "e7", "E7: partitioning overhead (Eq. 3/6 recomputations)", func() (string, error) {
			return rendered(renderOverhead)(Overhead(e))
		}},
		{"gauss", "e8", fmt.Sprintf("E8: Gaussian elimination with partial pivoting (N=%d)", n), func() (string, error) {
			return rendered(renderGauss)(Gauss(e, n))
		}},
		{"ablations", "a1_a5", "Ablations A1-A5", func() (string, error) {
			return rendered(renderAblations)(Ablations(e))
		}},
		{"ablations", "a6_a7", "Ablations A6-A7 (composition and search extensions)", func() (string, error) {
			return rendered(renderAblations)(ExtendedAblations(e))
		}},
		{"adaptive", "e9", "E9: dynamic repartitioning with row migration (§7 future work)", func() (string, error) {
			return rendered(renderAdaptive)(Adaptive(e, 400, 80))
		}},
		{"metasystem", "e10", "E10: metasystem with a multicomputer (§7 future work)", func() (string, error) {
			return rendered(renderMetasystem)(Metasystem(e, 1200))
		}},
		{"implselect", "e12", "E12: implementation selection — 1-D rows vs 2-D blocks", func() (string, error) {
			return rendered(renderImplSelect)(ImplSelect(e))
		}},
		{"particles", "e13", "E13: particle simulation — data-dependent PDU weights", func() (string, error) {
			return rendered(renderParticles)(Particles(e))
		}},
		{"selectioncost", "e14", "E14: selection cost — runtime partitioning vs benchmarked selection [1]", func() (string, error) {
			return rendered(renderSelectionCost)(SelectionCost(e, 600))
		}},
		{"noise", "e15", "E15: noise sensitivity — the 'average case' caveat of §3.0", func() (string, error) {
			return rendered(renderNoise)(Noise(e))
		}},
		{"faulttol", "e16", "E16: fault tolerance — node loss mid-run, recovery on the live runtime", func() (string, error) {
			return rendered(renderFaultTol)(FaultTol(e, 96, 30))
		}},
		{"startup", "e11", "E11: initial-distribution cost (T_startup) and amortization", func() (string, error) {
			return rendered(renderStartup)(Startup(e))
		}},
		{"table2", "e29", "E29: Table 2 residuals — predicted vs simulated T_comp, T_comm, T_c per cell", func() (string, error) {
			return rendered((*residuals).render)(table2Residuals(e, table2))
		}},
	}
}

// rendered turns an experiment's result and error into its section's text
// and error.
func rendered[T any](render func(T) string) func(T, error) (string, error) {
	return func(v T, err error) (string, error) {
		if err != nil {
			return "", err
		}
		return render(v), nil
	}
}
