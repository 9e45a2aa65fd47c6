// Package stencil implements the paper's evaluation application: a dense
// N×N iterative five-point stencil with block-row decomposition (the PDU is
// one grid row) over a 1-D communication topology, in the two variants of
// Section 6.0 — STEN-1 (communication not overlapped with computation) and
// STEN-2 (border transmission overlapped with the grid update).
//
// The same numerical kernel backs the sequential reference and the
// distributed variants, so distributed runs can be verified bit-exactly
// against the reference.
package stencil

import (
	"math"

	"netpart/internal/core"
	"netpart/internal/cost"
	"netpart/internal/model"
	"netpart/internal/spmd"
	"netpart/internal/topo"
)

// Variant selects the implementation.
type Variant int

// The two implementations of Section 6.0.
const (
	STEN1 Variant = iota // sends, blocking receives, then compute
	STEN2                // async sends, interior compute, receives, border compute
)

// String returns "STEN-1" or "STEN-2".
func (v Variant) String() string {
	if v == STEN2 {
		return "STEN-2"
	}
	return "STEN-1"
}

// BytesPerPoint is the wire size of one grid point (the paper assumes
// 4-byte grid points, giving the 4N communication complexity).
const BytesPerPoint = 4

// OpsPerPoint is the per-point operation count of the five-point update
// (four adds and one multiply), giving the 5N computational complexity.
const OpsPerPoint = 5

// Annotations returns the Section 4.0 callback annotations for an N×N
// stencil of the given variant running iters cycles.
func Annotations(n int, v Variant, iters int) *core.Annotations {
	overlap := ""
	if v == STEN2 {
		overlap = "grid-update"
	}
	return &core.Annotations{
		Name:    v.String(),
		NumPDUs: func() int { return n },
		Compute: []core.ComputationPhase{{
			Name:             "grid-update",
			ComplexityPerPDU: func() float64 { return OpsPerPoint * float64(n) },
			Class:            model.OpFloat,
		}},
		Comm: []core.CommunicationPhase{{
			Name:            "border-exchange",
			Topology:        "1-D",
			BytesPerMessage: func(float64) float64 { return BytesPerPoint * float64(n) },
			Overlap:         overlap,
		}},
		Cycles: iters,
		// One row is N 4-byte points; declaring it lets the estimator
		// report T_startup for the initial grid distribution.
		StartupBytesPerPDU: BytesPerPoint * float64(n),
	}
}

// ScatterSim measures the initial grid distribution on the simulated
// network: the first task owns the whole grid and sends every other task
// its row block in one batched message. It returns the elapsed virtual
// time — the quantity the paper's Table 2 timings exclude and its
// amortization argument bounds.
func ScatterSim(net *model.Network, cfg cost.Config, vec core.Vector, n int) (float64, error) {
	names, counts := cfg.Active()
	pl, err := topo.Contiguous(names, counts)
	if err != nil {
		return 0, err
	}
	if err := checkVector(vec, pl.NumTasks(), n, nil); err != nil {
		return 0, err
	}
	job := spmd.Job{
		Net:       net,
		Placement: pl,
		Vector:    vec,
		Topology:  topo.OneD{},
		Body: func(t *spmd.Task) {
			if t.Rank() == 0 {
				for dst := 1; dst < t.NumTasks(); dst++ {
					t.Send(dst, BytesPerPoint*n*vec[dst], nil)
				}
				return
			}
			t.Recv(0)
		},
	}
	rep, err := spmd.Run(job)
	if err != nil {
		return 0, err
	}
	return rep.ElapsedMs, nil
}

// NewGrid returns the deterministic N×N initial condition used throughout
// the experiments: a hot (100.0) north edge, cold elsewhere.
func NewGrid(n int) [][]float64 {
	g := rowsView(make([]float64, n*n), n, n)
	if n > 0 {
		initialRow(g[0], 0)
	}
	return g
}

// initialRow writes global row g of the initial condition into dst. It is
// the one source of that condition: NewGrid, the cycle driver and the
// fault-tolerant runtime's cycle-0 regeneration all call it.
func initialRow(dst []float64, g int) {
	v := 0.0
	if g == 0 {
		v = 100.0
	}
	for j := range dst {
		dst[j] = v
	}
}

// Sequential runs iters Jacobi iterations on a copy of grid and returns the
// result. It is the correctness reference for the distributed variants and
// runs the runtimes' own kernel: the n rows sit in one block, swept in place
// whole once per iteration (block.sweep in grid.go). Its independence rests
// on seedSequential, the naive two-array kernel the tests hold it to.
func Sequential(grid [][]float64, iters int) [][]float64 {
	b := sequentialBlock(grid)
	for it := 0; it < iters; it++ {
		b.sweep(0, len(grid), 1, len(grid), 1, nil, nil)
		b.flip()
	}
	return b.grid()
}

// SequentialUntil is the reference for converge-until runs
// (Options.Tol): iterate until the maximum point change falls to
// tol (or maxIters), returning the grid, iteration count and final change.
// It sweeps like Sequential and takes the change from the sweep.
func SequentialUntil(grid [][]float64, tol float64, maxIters int) ([][]float64, int, float64) {
	b := sequentialBlock(grid)
	delta := math.Inf(1)
	it := 0
	for ; it < maxIters && delta > tol; it++ {
		delta = 0
		b.sweep(0, len(grid), 1, len(grid), 1, nil, &delta)
		b.flip()
	}
	return b.grid(), it, delta
}

// sequentialBlock copies an n×n grid into the data rows of a fresh block of
// n rows. Its ghost rows are never read: the grid's first and last rows are
// copied, not updated.
func sequentialBlock(grid [][]float64) block {
	b := newBlock(len(grid), len(grid))
	for i, row := range grid {
		copy(b.row(i+1), row)
	}
	return b
}

// grid returns the data rows of a block that holds a whole grid as a grid
// of views into the block.
func (b *block) grid() [][]float64 {
	lo := (1 + b.shift) * b.width
	return rowsView(b.cells[lo:lo+b.rows*b.width], b.rows, b.width)
}
