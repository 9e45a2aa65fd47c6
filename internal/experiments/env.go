// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 6.0) on the simulated substrate, plus the ablations
// DESIGN.md calls out. Each experiment returns structured data and has a
// Render function producing the text table printed by cmd/experiments;
// bench_test.go at the repository root wraps each in a testing.B benchmark.
//
//netpart:deterministic
package experiments

import (
	"strings"

	"netpart/internal/commbench"
	"netpart/internal/core"
	"netpart/internal/cost"
	"netpart/internal/model"
	"netpart/internal/stencil"
	"netpart/internal/topo"
)

// Env is the shared experimental setup: the paper's testbed, the paper's
// published cost table, and a table fitted by benchmarking the simulator
// (the honest pipeline — the partitioner consults only fitted constants).
type Env struct {
	Net    *model.Network
	Paper  *cost.Table
	Fitted *cost.Table
	// Fits carries the commbench diagnostics behind Fitted.
	Fits []commbench.ClusterFit
	// Jobs bounds the worker pool the parallel experiment engine uses when
	// fanning out independent simulator runs (see runner.go). Zero means
	// GOMAXPROCS; 1 forces the serial path. Output is byte-identical at any
	// setting.
	Jobs int
}

// NewEnv builds the environment, running the offline benchmarking step.
func NewEnv() (*Env, error) {
	net := model.PaperTestbed()
	res, err := commbench.Run(net, []topo.Topology{topo.OneD{}, topo.Broadcast{}}, commbench.DefaultGrid())
	if err != nil {
		return nil, err
	}
	return &Env{
		Net:    net,
		Paper:  cost.PaperTable(),
		Fitted: res.Table,
		Fits:   res.Fits,
	}, nil
}

// PaperConfig builds a Sparc2/IPC configuration.
func PaperConfig(p1, p2 int) cost.Config {
	return cost.Config{
		Clusters: []string{model.Sparc2Cluster, model.IPCCluster},
		Counts:   []int{p1, p2},
	}
}

// Table2Configs are the seven measured configurations of Table 2.
var Table2Configs = []struct{ P1, P2 int }{
	{1, 0}, {2, 0}, {4, 0}, {6, 0}, {6, 2}, {6, 4}, {6, 6},
}

// ProblemSizes are the paper's four problem sizes.
var ProblemSizes = []int{60, 300, 600, 1200}

// Iterations matches the paper's Table 2 (10 iterations).
const Iterations = 10

// simMs is the simulated elapsed time of a stencil run whose grid nobody
// reads: a time-only run, with the virtual time of a computing one.
func simMs(net *model.Network, cfg cost.Config, vec core.Vector, v stencil.Variant, n, iters int) (float64, error) {
	res, err := stencil.RunSimAdaptive(net, cfg, vec, v, n, iters, stencil.AdaptiveOptions{TimeOnly: true})
	return res.ElapsedMs, err
}

// TextTable renders aligned columns for experiment output.
type TextTable struct {
	headers []string
	rows    [][]string
}

// NewTextTable creates a table with the given column headers.
func NewTextTable(headers ...string) *TextTable {
	return &TextTable{headers: headers}
}

// Add appends a row (cells beyond the header count are dropped; missing
// cells render empty).
func (t *TextTable) Add(cells ...string) {
	row := make([]string, len(t.headers))
	copy(row, cells)
	t.rows = append(t.rows, row)
}

// String renders the table with right-padded columns.
func (t *TextTable) String() string {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
		}
		b.WriteString("\n")
	}
	writeRow(t.headers)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total-2))
	b.WriteString("\n")
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}
