package stencil

import (
	"fmt"
	"testing"
	"time"

	"netpart/internal/mmps"
)

// BenchmarkStencilKernel measures one full-grid in-place sweep of a 240×240
// grid, block.sweep and flip as Sequential runs them — the pure compute
// inner loop every runtime (sim, live, adaptive, FT) shares.
// TestSweepAllocationBudget holds it to zero allocations per op.
func BenchmarkStencilKernel(b *testing.B) {
	b.SetBytes(int64(8 * kernelN * kernelN))
	benchOp(b, kernelOp())
}

// benchOp times op b.N times, reporting allocations.
func benchOp(b *testing.B, op func(i int)) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op(i)
	}
}

const kernelN = 240

func kernelOp() func(int) {
	blk := sequentialBlock(NewGrid(kernelN))
	return func(int) {
		blk.sweep(0, kernelN, 1, kernelN, 1, nil, nil)
		blk.flip()
	}
}

// BenchmarkSequential times reference grids of about the shapes the
// benchmark's set-up asks for — N = 1024 over 210 iterations (live-kernel's
// anchor), 600 over 10 (a Table 2 size) and 96 over 2010 (decide-sweep's
// anchor) — and reports ns per point and iteration: the layer under setup_s.
func BenchmarkSequential(b *testing.B) {
	for _, c := range []struct{ n, iters int }{{1024, 210}, {600, 10}, {96, 2010}} {
		b.Run(fmt.Sprintf("%dx%d", c.n, c.iters), func(b *testing.B) {
			grid := NewGrid(c.n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Sequential(grid, c.iters)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*float64(c.n*c.n*c.iters)), "ns/pt")
		})
	}
}

// BenchmarkBlockSweep measures one cycle of the driver's in-place sweep on a
// rank in the middle of the grid, ghost rows left as they are: a 2 MB block
// (256 rows of 1024 points, the live-kernel workload's, in STEN-2's order —
// interior, stash, edge rows) that streams from L2/L3, and 16 rows of 64
// points (live-exchange-local's, STEN-1's one span) that never leave L1.
// TestSweepAllocationBudget holds both to zero allocations per op.
func BenchmarkBlockSweep(b *testing.B) {
	for _, c := range blockSweeps {
		b.Run(fmt.Sprintf("%dx%d", c.rows, c.n), func(b *testing.B) {
			benchOp(b, blockSweepOp(c.rows, c.n, c.v))
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*c.rows*c.n), "ns/pt")
		})
	}
}

// blockSweeps are BenchmarkBlockSweep's two shapes.
var blockSweeps = []struct {
	rows, n int
	v       Variant
}{{256, 1024, STEN2}, {16, 64, STEN1}}

// blockSweepOp is one cycle's sweep of a rows×n block in v's order.
func blockSweepOp(rows, n int, v Variant) func(int) {
	blk := newBlock(rows, n)
	for i := range blk.cells {
		blk.cells[i] = float64(i % 97)
	}
	return func(int) { sweepCycle(&blk, v, n/2, n, 1, nil, nil, func() {}) }
}

// BenchmarkHaloExchange measures the live link's share of one border
// exchange between two ranks over the in-memory transport: encode both
// ghost rows as halo frames, send, receive, decode into the ghost row,
// and recycle the delivered buffers. Both ranks run on one goroutine, so
// every Recv finds its message already queued and never blocks: this is
// the codec and the transport's copy, not the wait (BenchmarkMMPSHaloLocal,
// at the root, has blocking receives). TestHaloCodecZeroAllocs holds it to
// zero allocations per op once the transport free lists are warm.
func BenchmarkHaloExchange(b *testing.B) {
	b.SetBytes(int64(2 * (haloHeaderLen + 8*haloN)))
	benchOp(b, haloExchangeOp(b))
}

const haloN = 240

// haloExchangeOp is one exchange of both border rows between two liveLinks
// over a fresh in-memory world, which closes at tb's cleanup.
func haloExchangeOp(tb testing.TB) func(int) {
	const n = haloN
	world, err := mmps.NewLocalWorld(2)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() {
		for _, tr := range world {
			tr.Close()
		}
	})
	row := make([]float64, n)
	for i := range row {
		row[i] = float64(i) * 0.25
	}
	var links [2]*liveLink
	for r := range links {
		lk := newLiveLink(world[r], time.Now(), n, 0)
		links[r] = &lk
	}
	into := make([]float64, n)
	exchange := func(src, dst *liveLink, g, cycle int) error {
		if err := src.Send(dst.Rank(), halo{g, cycle, row}); err != nil {
			return err
		}
		_, err := dst.Recv(src.Rank(), into)
		return err
	}
	// Warm both directions so the transports' free lists are populated.
	if err := exchange(links[0], links[1], 0, 0); err != nil {
		tb.Fatal(err)
	}
	if err := exchange(links[1], links[0], n-1, 0); err != nil {
		tb.Fatal(err)
	}
	return func(i int) {
		if err := exchange(links[0], links[1], 0, i); err != nil {
			tb.Fatal(err)
		}
		if err := exchange(links[1], links[0], n-1, i); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestSweepAllocationBudget holds the kernel benchmarks' operations —
// BenchmarkStencilKernel's whole-grid sweep and both BenchmarkBlockSweep
// shapes — to zero allocations per op: the sweep is //netpart:hotpath, and
// this is the dynamic half of that contract. Skips under -race, which
// allocates on its own.
func TestSweepAllocationBudget(t *testing.T) {
	skipUnderRace(t)
	names, ops := []string{"StencilKernel"}, []func(int){kernelOp()}
	for _, c := range blockSweeps {
		names = append(names, fmt.Sprintf("BlockSweep/%dx%d", c.rows, c.n))
		ops = append(ops, blockSweepOp(c.rows, c.n, c.v))
	}
	for i, op := range ops {
		if allocs := testing.AllocsPerRun(20, func() { op(0) }); allocs != 0 {
			t.Errorf("%s: %v allocs/op, budget 0", names[i], allocs)
		}
	}
}
