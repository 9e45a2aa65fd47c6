package stencil

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// seedUpdateRow is the original (pre-flat-grid) row kernel, kept verbatim
// as the bit-identity reference: dst[j] = (up[j] + down[j] + cur[j-1] +
// cur[j+1]) * 0.25, in exactly that operand order. The unrolled and the
// vector kernel in grid.go must reproduce it bit for bit.
func seedUpdateRow(dst, cur, up, down []float64) {
	n := len(cur)
	dst[0] = cur[0]
	dst[n-1] = cur[n-1]
	for j := 1; j < n-1; j++ {
		dst[j] = (up[j] + down[j] + cur[j-1] + cur[j+1]) * 0.25
	}
}

// seedCloneGrid is the original grid deep copy.
func seedCloneGrid(g [][]float64) [][]float64 {
	out := make([][]float64, len(g))
	cells := make([]float64, len(g)*len(g))
	for i := range g {
		out[i], cells = cells[:len(g)], cells[len(g):]
		copy(out[i], g[i])
	}
	return out
}

// seedSequential is the original [][]float64 reference kernel. Sequential
// runs the runtimes' in-place sweep, so this, not Sequential, is what keeps
// the reference independent of the code it checks.
func seedSequential(grid [][]float64, iters int) [][]float64 {
	n := len(grid)
	cur := seedCloneGrid(grid)
	next := seedCloneGrid(grid)
	for it := 0; it < iters; it++ {
		for i := 1; i < n-1; i++ {
			seedUpdateRow(next[i], cur[i], cur[i-1], cur[i+1])
		}
		cur, next = next, cur
	}
	return cur
}

// twoBufferSequentialUntil is SequentialUntil as it was before it ran on a
// block: two grids, updateRow on every interior row, the change taken over
// the interior after each row.
func twoBufferSequentialUntil(grid [][]float64, tol float64, maxIters int) ([][]float64, int, float64) {
	n := len(grid)
	cur := seedCloneGrid(grid)
	next := seedCloneGrid(grid)
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

// setPoison makes newBlock poison what it leaves unspecified until the test
// ends. Tests that use it do not run in parallel: poisonBlocks is a plain
// package variable.
func setPoison(t *testing.T) {
	was := poisonBlocks
	t.Cleanup(func() { poisonBlocks = was })
	poisonBlocks = true
}

// eachKernelPoisoned runs f as eachKernel does, then once more on each path
// with new blocks poisoned, so that a read of a ghost, spare or stash row
// nobody wrote fails a bit-exact comparison instead of reading a zero.
func eachKernelPoisoned(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	eachKernel(t, f)
	t.Run("poisoned", func(t *testing.T) {
		setPoison(t)
		eachKernel(t, f)
	})
}

// randomValue draws a finite value of either sign over forty binary orders
// of magnitude: operands with no zeros to hide a wrong one behind.
func randomValue(rng *rand.Rand) float64 {
	return math.Ldexp(2*rng.Float64()-1, rng.Intn(40)-20)
}

// randomGrid returns an n×n grid of randomValue draws.
func randomGrid(rng *rand.Rand, n int) [][]float64 {
	g := NewGrid(n)
	for _, row := range g {
		for j := range row {
			row[j] = randomValue(rng)
		}
	}
	return g
}

// sameBits reports where two grids first differ bit for bit, or ok.
func sameBits(got, want [][]float64) (i, j int, ok bool) {
	if len(got) != len(want) {
		return len(got), 0, false
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			return i, len(got[i]), false
		}
		for j := range want[i] {
			if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
				return i, j, false
			}
		}
	}
	return 0, 0, true
}

// goldenSizes covers the kernel's stepping edges and the widths around 512
// where the full-grid sweep once changed column tiles: tiny grids (spans
// below vectorMinSpan), interior widths that leave 1, 2 and 3 points after
// the vector routine's 8-point steps alone (9, 10, 11) and after its single
// 4-point step (13, 14, 15), the same six remainders around 512, and the
// sizes the benchmarks run.
var goldenSizes = []int{3, 4, 5, 7, 11, 12, 13, 15, 16, 17, 60, 61, 127, 240,
	507, 508, 509, 511, 512, 513, 519, 523, 524, 525, 527, 528, 529}

// anchorSizes are the grid sizes the benchmark's workloads verify against
// Sequential, two either side of each: about 64 (live-exchange-local), 96
// (decide-sweep), 512 (live-udp-overlap), 600 (sim-paper) and 1024
// (live-kernel).
var anchorSizes = []int{62, 63, 64, 65, 66, 94, 95, 96, 97, 98, 510, 511, 512, 513, 514,
	598, 599, 600, 601, 602, 1022, 1023, 1024, 1025, 1026}

// TestFlatKernelMatchesSeed pins Sequential, which runs the runtimes' sweep,
// to the seed kernel bit for bit: every golden size after 1, 2, 7 and 8
// iterations (8 ends on the block's other parity) from NewGrid and from a
// random grid — from NewGrid a wrong operand far from row 0 multiplies zeros
// and passes — and the benchmark's anchor sizes after 3.
func TestFlatKernelMatchesSeed(t *testing.T) {
	eachKernelPoisoned(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(1994))
		check := func(start string, init [][]float64, iters int) {
			t.Helper()
			got := Sequential(init, iters)
			want := seedSequential(init, iters)
			if i, j, ok := sameBits(got, want); !ok {
				n := len(init)
				t.Fatalf("n=%d iters=%d from %s: grid[%d][%d] differs from the seed kernel's", n, iters, start, i, j)
			}
		}
		for _, n := range goldenSizes {
			for _, iters := range []int{1, 2, 7, 8} {
				check("NewGrid", NewGrid(n), iters)
				check("a random grid", randomGrid(rng, n), iters)
			}
		}
		for _, n := range anchorSizes {
			check("NewGrid", NewGrid(n), 3)
		}
	})
}

// TestSequentialUntilMatchesTwoBuffers holds SequentialUntil on the block to
// the two-grid loop it replaced: the same iteration count, the same final
// change and the same grid, bit for bit, for every golden size and the
// degenerate ones across tolerances that stop it at once, early, late and
// never, with new blocks poisoned.
func TestSequentialUntilMatchesTwoBuffers(t *testing.T) {
	setPoison(t)
	for _, n := range append([]int{0, 1, 2}, goldenSizes...) {
		for _, tol := range []float64{0, 1e-3, 0.5, 10} {
			for _, maxIters := range []int{0, 1, 5, 40} {
				got, gotIters, gotDelta := SequentialUntil(NewGrid(n), tol, maxIters)
				want, wantIters, wantDelta := twoBufferSequentialUntil(NewGrid(n), tol, maxIters)
				if gotIters != wantIters || math.Float64bits(gotDelta) != math.Float64bits(wantDelta) {
					t.Fatalf("N=%d tol=%v maxIters=%d: %d iterations to delta %v, two buffers %d to %v",
						n, tol, maxIters, gotIters, gotDelta, wantIters, wantDelta)
				}
				if i, j, ok := sameBits(got, want); !ok {
					t.Fatalf("N=%d tol=%v maxIters=%d: grid[%d][%d] differs from two buffers'", n, tol, maxIters, i, j)
				}
			}
		}
	}
}

// TestUpdateRowMatchesSeed pins the row kernel (the distributed runtimes'
// unit of compute) against the seed row kernel on awkward widths.
func TestUpdateRowMatchesSeed(t *testing.T) {
	eachKernel(t, func(t *testing.T) {
		for _, n := range goldenSizes {
			g := NewGrid(n)
			got := make([]float64, n)
			want := make([]float64, n)
			for i := 1; i < n-1; i++ {
				updateRow(got, g[i], g[i-1], g[i+1])
				seedUpdateRow(want, g[i], g[i-1], g[i+1])
				for j := range want {
					if got[j] != want[j] {
						t.Fatalf("n=%d row %d col %d: %v, seed %v", n, i, j, got[j], want[j])
					}
				}
			}
		}
	})
}

// TestLiveMatchesSeedKernel runs the live runtime (flat blocks, pooled halo
// frames) across awkward sizes and both variants and requires bit-identity
// with the seed kernel — the end-to-end form of the golden guarantee.
func TestLiveMatchesSeedKernel(t *testing.T) {
	eachKernel(t, func(t *testing.T) {
		for _, n := range []int{7, 61, 127} {
			for _, v := range []Variant{STEN1, STEN2} {
				world := localWorld(t, 3)
				res, err := Live(world, core3Vector(n), v, n, 5, Options{})
				closeWorld(world)
				if err != nil {
					t.Fatalf("n=%d %v: %v", n, v, err)
				}
				want := seedSequential(NewGrid(n), 5)
				for i := range want {
					for j := range want[i] {
						if res.Grid[i][j] != want[i][j] {
							t.Fatalf("n=%d %v: grid[%d][%d] = %v, seed %v", n, v, i, j, res.Grid[i][j], want[i][j])
						}
					}
				}
			}
		}
	})
}

// sweepCycle takes b through one cycle as rankState.cycles does: v's spans in
// the driver's order, ghosts called where the driver receives them, the flip.
func sweepCycle(b *block, v Variant, off, n, reps int, scratch []float64, delta *float64, ghosts func()) {
	if v == STEN1 {
		ghosts()
		b.sweep(off, n, 1, b.rows, reps, scratch, delta)
	} else {
		if b.rows > 2 {
			b.sweep(off, n, 2, b.rows-1, reps, scratch, delta)
		}
		ghosts()
		b.sweep(off, n, 1, 1, reps, scratch, delta)
		if b.rows > 1 {
			b.sweep(off, n, b.rows, b.rows, reps, scratch, delta)
		}
	}
	b.flip()
}

// TestBlockSweepMatchesTwoArrays drives the in-place sweep directly, on
// blocks that have no zeros to hide behind: every driver-level test starts
// from NewGrid (row 0 hot, the rest 0), where a wrong operand far from row 0
// multiplies zeros for the first dozen cycles and passes. Here every value is
// random and the ghost rows are fresh each cycle. Blocks of 1..7 rows, placed
// first, in the middle, last or alone in the grid (global rows 0 and n-1 are
// copied), swept in STEN-1's and STEN-2's call orders — the ghosts arriving
// after the interior span, as in cycles — for six cycles from each starting
// parity, with and without repeats and the convergence delta, must equal a
// two-array reference bit for bit after every cycle. The repeats run on
// operands the real update has not yet overwritten: what they leave in
// scratch is one of the cycle's new rows.
func TestBlockSweepMatchesTwoArrays(t *testing.T) {
	eachKernelPoisoned(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(1994))
		fill := func(rows ...[]float64) {
			for j := range rows[0] {
				v := randomValue(rng)
				for _, row := range rows {
					row[j] = v
				}
			}
		}
		for rows := 1; rows <= 7; rows++ {
			for _, place := range []string{"first", "middle", "last", "alone"} {
				n, off := 24, 0 // 22 interior columns: vector steps of 8, 8 and 4, then 2 scalar
				switch place {
				case "middle":
					off = 9
				case "last":
					off = n - rows
				case "alone":
					n = rows // below vectorMinSpan: the Go loop alone
				}
				for c := 0; c < 16; c++ {
					v, flipped, reps, withDelta := Variant(c&1), c&2 != 0, 1+c>>2&1, c&8 != 0
					b := newBlock(rows, n)
					if flipped {
						b.flip()
					}
					ref, next := make([][]float64, rows+2), make([][]float64, rows+2)
					for i := range ref {
						ref[i], next[i] = make([]float64, n), make([]float64, n)
						fill(ref[i], b.row(i))
					}
					scratch := make([]float64, n)
					for cycle := 0; cycle < 6; cycle++ {
						var got, want float64
						delta := &got
						if !withDelta {
							delta = nil
						}
						ghosts := func() {
							fill(ref[0], b.row(0))
							fill(ref[rows+1], b.row(rows+1))
						}
						sweepCycle(&b, v, off, n, reps, scratch, delta, ghosts)
						for i := 1; i <= rows; i++ {
							if g := off + i - 1; g == 0 || g == n-1 {
								copy(next[i], ref[i])
								continue
							}
							seedUpdateRow(next[i], ref[i], ref[i-1], ref[i+1])
							for j := 1; j < n-1; j++ {
								want = max(want, math.Abs(next[i][j]-ref[i][j]))
							}
						}
						ref, next = next, ref
						repeated := reps == 1 || n < 3 || rows == 1 && place != "middle"
						for i := 1; i <= rows; i++ {
							for j, w := range ref[i] {
								if math.Float64bits(b.row(i)[j]) != math.Float64bits(w) {
									t.Fatalf("%d rows %s %s flipped=%v reps=%d cycle %d: row %d column %d = %v, two arrays give %v",
										rows, place, v, flipped, reps, cycle, i, j, b.row(i)[j], w)
								}
							}
							repeated = repeated || slices.Equal(scratch, ref[i])
						}
						if !repeated {
							t.Fatalf("%d rows %s %s flipped=%v cycle %d: scratch holds none of the new rows", rows, place, v, flipped, cycle)
						}
						if withDelta && got != want {
							t.Fatalf("%d rows %s %s flipped=%v reps=%d cycle %d: delta %v, two arrays give %v",
								rows, place, v, flipped, reps, cycle, got, want)
						}
					}
				}
			}
		}
	})
}

// core3Vector splits n rows over 3 ranks with a deliberately uneven split.
func core3Vector(n int) []int {
	a := n / 4
	if a == 0 {
		a = 1
	}
	b := n / 2
	if a+b >= n {
		b = n - a - 1
	}
	return []int{a, b, n - a - b}
}

// TestHaloFrameRoundTrip pins the halo frame codec: header fields and
// payload survive the round trip, short frames error, and the parse scratch
// is reused.
func TestHaloFrameRoundTrip(t *testing.T) {
	row := []float64{1.5, -2.25, 3.75, 0, 1e-300}
	buf := appendHaloFrame(nil, 41, 7, row)
	if len(buf) != haloHeaderLen+8*len(row) {
		t.Fatalf("frame length %d, want %d", len(buf), haloHeaderLen+8*len(row))
	}
	scratch := make([]float64, 0, len(row))
	g, cycle, vals, err := parseHaloFrame(buf, scratch[:0])
	if err != nil {
		t.Fatal(err)
	}
	if g != 41 || cycle != 7 {
		t.Fatalf("header (%d, %d), want (41, 7)", g, cycle)
	}
	for i := range row {
		if vals[i] != row[i] {
			t.Fatalf("vals[%d] = %v, want %v", i, vals[i], row[i])
		}
	}
	if _, _, _, err := parseHaloFrame(buf[:haloHeaderLen-1], nil); err == nil {
		t.Fatal("short frame must error")
	}
}

// TestHaloCodecZeroAllocs pins the codec's allocation guarantee: with
// capacity-sized buffers, encode and decode are allocation-free.
func TestHaloCodecZeroAllocs(t *testing.T) {
	const n = 240
	row := make([]float64, n)
	for i := range row {
		row[i] = float64(i) * 0.5
	}
	buf := make([]byte, 0, haloHeaderLen+8*n)
	vals := make([]float64, 0, n)
	allocs := testing.AllocsPerRun(100, func() {
		buf = appendHaloFrame(buf[:0], 3, 9, row)
		_, _, v, err := parseHaloFrame(buf, vals[:0])
		if err != nil {
			t.Fatal(err)
		}
		vals = v
	})
	if allocs != 0 {
		t.Errorf("halo codec allocates %.2f/op, want 0", allocs)
	}
}
