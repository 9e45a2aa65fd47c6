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

// cloneGrid deep-copies a grid.
func cloneGrid(g [][]float64) [][]float64 {
	out := make([][]float64, len(g))
	cells := make([]float64, len(g)*len(g))
	for i := range g {
		out[i], cells = cells[:len(g)], cells[len(g):]
		copy(out[i], g[i])
	}
	return out
}

// Sequential runs iters Jacobi iterations on a copy of grid and returns the
// result. It is the correctness reference for the distributed variants,
// running the cache-blocked flat kernel (grid.go) over two flat buffers.
func Sequential(grid [][]float64, iters int) [][]float64 {
	n := len(grid)
	cur := flatten(grid)
	// jacobiIter rewrites every row of next but the first and the last.
	next := make([]float64, n*n)
	copy(next[:n], cur[:n])
	copy(next[n*n-n:], cur[n*n-n:])
	for it := 0; it < iters; it++ {
		jacobiIter(next, cur, n)
		cur, next = next, cur
	}
	return rowsView(cur, n, n)
}

// SequentialUntil is the reference for converge-until runs
// (Options.Tol): iterate until the maximum point change falls to
// tol (or maxIters), returning the grid, iteration count and final change.
func SequentialUntil(grid [][]float64, tol float64, maxIters int) ([][]float64, int, float64) {
	n := len(grid)
	cur := cloneGrid(grid)
	next := cloneGrid(grid)
	delta := math.Inf(1)
	it := 0
	for ; it < maxIters && delta > tol; it++ {
		delta = 0
		for i := 1; i < n-1; i++ {
			updateRow(next[i], cur[i], cur[i-1], cur[i+1])
			for j := 1; j < n-1; j++ {
				if d := math.Abs(next[i][j] - cur[i][j]); d > delta {
					delta = d
				}
			}
		}
		cur, next = next, cur
	}
	return cur, it, delta
}
