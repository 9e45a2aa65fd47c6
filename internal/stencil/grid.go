package stencil

// This file holds the flat-grid compute kernel shared by every stencil
// runtime — Sequential, the simulated variants, the live/adaptive
// runtimes, and FT recovery. Rows live in one row-major backing array
// (type block) swept in place, and the five-point update runs four points
// per instruction where the processor has AVX2 (kernel_amd64.s), a Go loop
// with hoisted bounds checks everywhere else and for what the vector routine
// leaves. The arithmetic — one (up + down + left + right) * 0.25 per point,
// operands in that order — is exactly the seed kernel's on either path, so
// results stay bit-for-bit identical (golden tests in grid_test.go pin both
// against the seed kernel, kernel_test.go one against the other).

import (
	"math"

	"netpart/internal/cpufeat"
)

// block is a task-local band of grid rows in one flat row-major allocation,
// updated in place. The logical rows — data rows 1..rows between the north
// and south ghost rows 0 and rows+1 — occupy rows+2 of rows+3 storage rows,
// logical row i at storage row i+shift. A sweep with shift 1 walks the rows
// upwards and writes new row i into storage row i, over old row i-1; with
// shift 0 it walks them downwards and writes new row i into storage row i+1,
// over old row i+1; flip then toggles shift. The destination is always a row
// the sweep has just read, so a point costs one line read and one written
// back (16 B) where a second block adds a write-allocate fetch (24 B), and
// the working set is one block, not two.
type block struct {
	width, rows, shift int
	cells              []float64
	// stash holds old rows held and held+1 (held 0: nothing) for a cycle whose
	// first span starts behind rows still to be updated and overwrites their
	// operands: STEN-2's interior span, which runs before the edge rows.
	// swept says that a span of this cycle has run.
	stash []float64
	held  int
	swept bool
}

// newBlock allocates a block of rows data rows plus two ghost rows, and its
// stash, so that the sweep never allocates. The data rows are zero, the
// initial condition's cold value; what the ghost rows, the spare storage
// row and the stash hold is unspecified until they are written.
func newBlock(rows, width int) block {
	b := block{width: width, rows: rows, shift: 1,
		cells: make([]float64, (rows+3)*width), stash: make([]float64, 2*width)}
	if poisonBlocks {
		for _, s := range [][]float64{b.cells[:2*width], b.cells[(rows+2)*width:], b.stash} {
			for i := range s {
				s[i] = poison
			}
		}
	}
	return b
}

// poisonBlocks is false except in tests, which set it to make newBlock fill
// everything it leaves unspecified with poison: a read of a ghost, spare or
// stash row nobody wrote then shows in a bit-exact comparison instead of
// reading a zero.
var poisonBlocks bool

// poison is a quiet NaN with a fixed payload.
var poison = math.Float64frombits(0x7ff8_dead_beef_0bad)

// row returns the local row i as a slice view into the backing array.
//
//netpart:hotpath
func (b *block) row(i int) []float64 {
	i += b.shift
	return b.cells[i*b.width : (i+1)*b.width]
}

// old returns local row i as the cycle found it: the stashed copy if there is
// one, because the row itself may have been overwritten since.
//
//netpart:hotpath
func (b *block) old(i int) []float64 {
	if k := i - b.held; b.held > 0 && uint(k) < 2 {
		return b.stash[k*b.width : (k+1)*b.width]
	}
	return b.row(i)
}

// flip ends a cycle that swept every data row: the new rows sit one storage
// row from where the old ones were, and the next sweep runs the other way.
func (b *block) flip() {
	b.shift ^= 1
	b.held, b.swept = 0, false
}

// sweep advances local rows [lo, hi] of a block that starts at global row off
// by one Jacobi step: the grid's first and last rows are copied, every other
// row gets the five-point update, each into the storage of the old row behind
// it (dst is exactly up or exactly down, which updateSpan allows). The spans
// of one cycle partition 1..rows, and only the first may start behind a row
// not yet updated (STEN-2: the interior, then the edge rows in either order).
// Such a span is about to destroy two old rows which that row's update reads
// — its own first row and the one behind — and stashes them; a span at the
// sweep's leading edge (STEN-1's one span) or behind an updated row, which
// any later span is, stashes nothing. reps > 1 first redoes each update
// reps-1 times into scratch, while the operands are intact, making the rank
// behave like a proportionally slower processor. A non-nil delta is raised to
// the largest point change seen. Shared by the driver and the fault-tolerant
// runtime.
//
//netpart:hotpath
func (b *block) sweep(off, n, lo, hi, reps int, scratch []float64, delta *float64) {
	back := 1 - 2*b.shift // new row i takes the storage of old row i+back
	first, last := hi, lo
	if back < 0 {
		first, last = lo, hi
	}
	if e := first + back; !b.swept && e >= 1 && e <= b.rows {
		b.held = min(e, first)
		copy(b.stash, b.cells[(b.held+b.shift)*b.width:(b.held+b.shift+2)*b.width])
	}
	b.swept = true
	for li := first; li != last-back; li -= back {
		dst, cur := b.row(li+back), b.old(li)
		if g := off + li - 1; g == 0 || g == n-1 {
			copy(dst, cur)
			continue
		}
		up, down := b.old(li-1), b.old(li+1)
		for extra := 1; extra < reps; extra++ {
			updateRow(scratch, cur, up, down)
		}
		updateRow(dst, cur, up, down)
		if delta != nil {
			for c := 1; c < n-1; c++ {
				if d := math.Abs(dst[c] - cur[c]); d > *delta {
					*delta = d
				}
			}
		}
	}
}

// useAVX2 is decided once, here, from what the processor and the operating
// system report (cpufeat, the module's one probe). Only the tests write it
// afterwards, to hold both paths of updateSpan to the same grids on one
// machine.
var useAVX2 = cpufeat.HasAVX2()

// vectorMinSpan is the shortest span handed to the vector routine: the call
// and the VZEROUPPER cost more than four lanes save at 4 points and less
// from 8 on (BenchmarkUpdateSpan; EXPERIMENTS E21).
const vectorMinSpan = 8

// updateSpan computes the five-point Jacobi update of columns [lo, hi) of
// one row: dst[j] = (up[j] + down[j] + cur[j-1] + cur[j+1]) * 0.25. The
// span must be interior (lo >= 1, hi <= len(cur)-1). dst may be a row of its
// own, or exactly up, or exactly down — the same words at the same offset,
// which is how the in-place sweep calls it: on either path every point (every
// lane) loads up[j] and down[j] before it stores dst[j], and no other point
// reads them. dst may overlap up or down in no other way, and cur not at all:
// cur is read at j-1 and j+1, so a point would see its neighbour's new value.
// This is the one place the kernel is chosen: with AVX2 the vector
// routine takes every whole group of four points and the Go loop the 0-3
// left over; without it, or on a short span, the Go loop takes them all.
// Reslicing hoists its bounds checks and the 4-wide unroll keeps the FP
// adds pipelined. Either way each point sees the seed kernel's operations
// in the seed kernel's order.
//
//netpart:hotpath
func updateSpan(dst, cur, up, down []float64, lo, hi int) {
	if hi <= lo {
		return
	}
	d := dst[lo:hi]
	m := len(d)
	u := up[lo:hi]
	w := down[lo:hi]
	l := cur[lo-1 : hi-1]
	r := cur[lo+1 : hi+1]
	_, _, _, _ = u[m-1], w[m-1], l[m-1], r[m-1]
	j := 0
	if useAVX2 && m >= vectorMinSpan {
		j = m &^ 3
		spanAVX2(&d[0], &u[0], &w[0], &l[0], &r[0], j)
	}
	for ; j+3 < m; j += 4 {
		d[j] = (u[j] + w[j] + l[j] + r[j]) * 0.25
		d[j+1] = (u[j+1] + w[j+1] + l[j+1] + r[j+1]) * 0.25
		d[j+2] = (u[j+2] + w[j+2] + l[j+2] + r[j+2]) * 0.25
		d[j+3] = (u[j+3] + w[j+3] + l[j+3] + r[j+3]) * 0.25
	}
	for ; j < m; j++ {
		d[j] = (u[j] + w[j] + l[j] + r[j]) * 0.25
	}
}

// updateRow computes the five-point Jacobi update of one whole interior
// row; boundary columns keep their values.
//
//netpart:hotpath
func updateRow(dst, cur, up, down []float64) {
	n := len(cur)
	dst[0] = cur[0]
	dst[n-1] = cur[n-1]
	updateSpan(dst, cur, up, down, 1, n-1)
}

// rowsView wraps flat row-major storage in per-row slice headers (views,
// not copies) for the [][]float64 public surface.
func rowsView(cells []float64, rows, width int) [][]float64 {
	out := make([][]float64, rows)
	for i := range out {
		out[i] = cells[i*width : (i+1)*width]
	}
	return out
}
