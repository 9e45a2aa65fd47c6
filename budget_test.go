package netpart_test

import (
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"netpart"
	"netpart/internal/core"
)

// raceDetector reports whether this test binary was built with -race.
func raceDetector() bool {
	bi, _ := debug.ReadBuildInfo()
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// perOp runs op runs times to warm it, as a benchmark's earlier rounds
// do, then runs times more, and returns the mallocs and bytes allocated
// per measured run, truncated as a benchmark's allocs/op and B/op are. It
// measures at the process's GOMAXPROCS, as the benchmarks do: an operation
// that spreads over worker goroutines takes more from its pools when it
// has more processors. (Table 2's pooled time-only blocks reach their
// sizes in about 30 runs.)
func perOp(runs int, op func(int)) (allocs, bytes uint64) {
	for i := 0; i < runs; i++ {
		op(i)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := runs; i < 2*runs; i++ {
		op(i)
	}
	runtime.ReadMemStats(&after)
	return (after.Mallocs - before.Mallocs) / uint64(runs), (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestAllocationBudgets holds each budgeted benchmark of this package to
// its allocation and byte ceilings, measuring the operation the benchmark
// times (the same xxxOp constructor). The counts do not depend on the
// machine's speed, so the ceilings are hard. The race detector allocates
// on its own and drops pooled items, so the test skips under -race.
//
//   - A decision as a caller pays for it (a fresh estimator plus Partition)
//     within 4 allocations, and a search on a warm estimator within 3 (4
//     for the exhaustive one): the estimator and the Result's three slices.
//     PartitionGlobal, which probes from many starts, within 74.
//   - The offline cost fit (every simulated message of the Eq. 1 sweep)
//     within 3000 allocations, so a closure per simulated message cannot
//     come back; one simulated STEN-2 run within its measured count plus
//     10 %, so an allocation per border message cannot either; Table 2 and
//     Fig. 3 within 4 MB and 1 MB, so a grid computed again where it is
//     dropped cannot.
//   - The sequential reference at N = 600 within one block and its row
//     headers (3 allocations, 2.93 MB), so a second full-grid buffer
//     cannot come back.
//   - A UDP round trip (1 KB unrecycled, 4 KB halo recycled) within 8
//     allocations, and the in-memory 4 KB halo ping-pong, whose receives
//     block, within none.
func TestAllocationBudgets(t *testing.T) {
	if raceDetector() {
		t.Skip("the race detector changes allocation counts")
	}
	const none = ^uint64(0)
	for _, c := range []struct {
		name          string // the benchmarks whose operation this is
		op            func(testing.TB) func(int)
		runs          int
		allocs, bytes uint64
	}{
		{"Table2Elapsed", table2Op, 30, none, 4_000_000},
		{"Fig3Curve", fig3Op, 10, none, 1_000_000},
		{"CostFit", costFitOp, 10, 3000, none},
		{"PartitionOverhead,AblationSearch/bisect", func(tb testing.TB) func(int) { return searchOp(tb, core.Partition) }, 100, 3, none},
		{"AblationSearch/scan", func(tb testing.TB) func(int) { return searchOp(tb, core.PartitionLinear) }, 100, 3, none},
		{"AblationSearch/exhaustive", func(tb testing.TB) func(int) { return searchOp(tb, core.PartitionExhaustive) }, 100, 4, none},
		{"Decision", decisionOp, 100, 4, none},
		{"NewEstimator", newEstimatorOp, 100, 1, none},
		{"PartitionGlobal", globalOp, 20, 74, none},
		{"StencilSim", stencilSimOp, 5, 575, none},
		{"SequentialStencil", sequentialOp, 5, 3, 2_930_000},
		{"MMPSRoundTripUDP", func(tb testing.TB) func(int) { return pingPongOp(tb, netpart.NewUDPWorld, 1024, false) }, 200, 8, none},
		{"MMPSHaloUDP", func(tb testing.TB) func(int) { return pingPongOp(tb, netpart.NewUDPWorld, 4096, true) }, 200, 8, none},
		{"MMPSHaloLocal", func(tb testing.TB) func(int) { return pingPongOp(tb, netpart.NewLocalWorld, 4096, true) }, 1000, 0, none},
	} {
		t.Run(c.name, func(t *testing.T) {
			allocs, bytes := perOp(c.runs, c.op(t))
			t.Logf("%d allocs/op, %d B/op", allocs, bytes)
			if allocs > c.allocs {
				t.Errorf("%d allocs/op, budget %d", allocs, c.allocs)
			}
			if bytes > c.bytes {
				t.Errorf("%d B/op, budget %d", bytes, c.bytes)
			}
		})
	}
}

// TestLatencyBudgets holds two operations to a time ceiling, each the
// fastest of several timed batches, so a busy machine can slow a batch
// but not fail the test. A warm delta probe, the unit a search spends per
// candidate, stays within 50 µs; the planner's P = 16 pass stays under a
// millisecond, because a drift-triggered round stalls every rank on rank
// 0 while it plans. Timing under -race measures the detector, so the
// test skips there.
func TestLatencyBudgets(t *testing.T) {
	if raceDetector() {
		t.Skip("the race detector slows every operation")
	}
	for _, c := range []struct {
		name  string
		op    func(testing.TB) func(int)
		batch int
		limit time.Duration
	}{
		{"EstimateDelta", probeOp, 1000, 50 * time.Microsecond},
		{"RepartPlan", planOp, 50, time.Millisecond},
	} {
		t.Run(c.name, func(t *testing.T) {
			op := c.op(t)
			op(0)
			best := time.Duration(1<<63 - 1)
			for batch := 0; batch < 5; batch++ {
				start := time.Now()
				for i := 0; i < c.batch; i++ {
					op(i)
				}
				best = min(best, time.Since(start)/time.Duration(c.batch))
			}
			t.Logf("%v/op, fastest of 5 batches of %d", best, c.batch)
			if best > c.limit {
				t.Errorf("%v/op, budget %v", best, c.limit)
			}
		})
	}
}
