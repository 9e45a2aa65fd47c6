package stencil

// This file holds the flat-grid compute kernel shared by every stencil
// runtime — Sequential, the simulated variants, the live/adaptive
// runtimes, and FT recovery. Rows live in one row-major backing array
// (type block), and the five-point update runs cache-blocked: four points
// per instruction where the processor has AVX2 (kernel_amd64.s), a Go loop
// with hoisted bounds checks everywhere else and for what the vector routine
// leaves. The arithmetic — one (up + down + left + right) * 0.25 per point,
// operands in that order — is exactly the seed kernel's on either path, so
// results stay bit-for-bit identical (golden tests in grid_test.go pin both
// against the reference kernel, kernel_test.go one against the other).

import "sync"

// colTile is the column-tile width of the cache-blocked full-grid sweep:
// three active rows of one tile (3 × 512 × 8 B = 12 KiB) sit comfortably
// in L1 even with write-allocate traffic for the destination tile.
const colTile = 512

// block is a task-local band of grid rows in one flat row-major
// allocation: rows data rows at local indices 1..rows, plus the north and
// south ghost rows at 0 and rows+1.
type block struct {
	width int
	cells []float64
}

// newBlock allocates a zeroed block of rows data rows plus two ghost rows.
func newBlock(rows, width int) block {
	return block{width: width, cells: make([]float64, (rows+2)*width)}
}

// blockPool recycles the driver's next blocks between runs. The final cur
// blocks leave with the caller as the result's rows, so only a block that was
// next when its rank finished, or that a rebalance replaced, comes back here.
var blockPool sync.Pool

// getBlock is newBlock without the zeroing guarantee: a recycled block
// keeps whatever an earlier run left in it. That suits a rank's next block
// and nothing else — every data row is written before the swap makes it
// cur, and a ghost row is received before it is read.
func getBlock(rows, width int) block {
	need := (rows + 2) * width
	if p, _ := blockPool.Get().(*[]float64); p != nil && cap(*p) >= need {
		return block{width: width, cells: (*p)[:need]}
	}
	return newBlock(rows, width)
}

// putBlock recycles a block nothing refers to any more.
func putBlock(b block) { blockPool.Put(&b.cells) }

// row returns the local row i as a slice view into the backing array.
//
//netpart:hotpath
func (b block) row(i int) []float64 {
	return b.cells[i*b.width : (i+1)*b.width]
}

// useAVX2 is decided once, here, from what the processor and the operating
// system report. Only the tests write it afterwards, to hold both paths of
// updateSpan to the same grids on one machine.
var useAVX2 = cpuHasAVX2()

// vectorMinSpan is the shortest span handed to the vector routine: the call
// and the VZEROUPPER cost more than four lanes save at 4 points and less
// from 8 on (BenchmarkUpdateSpan; EXPERIMENTS E21).
const vectorMinSpan = 8

// updateSpan computes the five-point Jacobi update of columns [lo, hi) of
// one row: dst[j] = (up[j] + down[j] + cur[j-1] + cur[j+1]) * 0.25. The
// span must be interior (lo >= 1, hi <= len(cur)-1), and dst must not be
// cur. This is the one place the kernel is chosen: with AVX2 the vector
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

// jacobiIter performs one full-grid Jacobi sweep over flat row-major
// storage: interior rows of next get the five-point update of cur,
// boundary columns are copied. Column tiles are swept outermost so the
// three cur rows feeding each destination row stay resident in L1 across
// the row walk. Every element's value is independent of sweep order, so
// tiling cannot change results.
//
//netpart:hotpath
func jacobiIter(next, cur []float64, n int) {
	for i := 1; i < n-1; i++ {
		next[i*n] = cur[i*n]
		next[i*n+n-1] = cur[i*n+n-1]
	}
	for c0 := 1; c0 < n-1; c0 += colTile {
		c1 := c0 + colTile
		if c1 > n-1 {
			c1 = n - 1
		}
		for i := 1; i < n-1; i++ {
			row := i * n
			updateSpan(next[row:row+n], cur[row:row+n], cur[row-n:row], cur[row+n:row+2*n], c0, c1)
		}
	}
}

// flatten copies a [][]float64 grid into one row-major array.
func flatten(g [][]float64) []float64 {
	n := len(g)
	out := make([]float64, n*n)
	for i, row := range g {
		copy(out[i*n:(i+1)*n], row)
	}
	return out
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
