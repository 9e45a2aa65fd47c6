package stencil

import (
	"runtime/debug"
	"testing"

	"netpart/internal/core"
	"netpart/internal/faults"
	"netpart/internal/model"
)

// skipUnderRace skips a test that counts allocations or pooled memory: the
// race detector drops pooled items at random and allocates on its own.
func skipUnderRace(t *testing.T) {
	t.Helper()
	if bi, _ := debug.ReadBuildInfo(); bi != nil {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("the race detector drops pooled items and allocates on its own")
			}
		}
	}
}

// TestSimAllocationsIndependentOfIterations: a simulated border exchange
// allocates nothing, so the 30 iterations a run of 40 has over a run of 10
// add fewer than 30 allocations, where one per border message would add
// 660 per variant on 12 ranks. Time-only at N = 600 on 6+6, and computing
// grids at N = 60, where every span is below overlapPoints and runs on the
// rank's own goroutine.
func TestSimAllocationsIndependentOfIterations(t *testing.T) {
	skipUnderRace(t)
	net := model.PaperTestbed()
	cfg := paperConfig(6, 6)
	for _, c := range []struct {
		n        int
		timeOnly bool
	}{{600, true}, {60, false}} {
		vec, err := core.Decompose(net, cfg, c.n, model.OpFloat)
		if err != nil {
			t.Fatal(err)
		}
		allocs := func(iters int) float64 {
			return testing.AllocsPerRun(5, func() {
				for _, v := range []Variant{STEN1, STEN2} {
					if _, err := RunSimAdaptive(net, cfg, vec, v, c.n, iters, AdaptiveOptions{TimeOnly: c.timeOnly}); err != nil {
						t.Fatal(err)
					}
				}
			})
		}
		short, long := allocs(10), allocs(40)
		t.Logf("N=%d time-only=%v: %.0f allocations at 10 iterations, %.0f at 40", c.n, c.timeOnly, short, long)
		if long-short >= 30 {
			t.Errorf("N=%d time-only=%v: %.0f allocations at 40 iterations against %.0f at 10",
				c.n, c.timeOnly, long, short)
		}
	}
}

// TestSimQueuedBordersStayExact: a rank that runs ahead of its neighbour
// queues two borders in the neighbour's mailbox at once, one in each slot
// of its ring. A slowed middle rank of three does that on STEN-2, which
// computes its interior before it receives (a STEN-1 rank takes its ghosts
// first), and a delayed link does it on both variants. The grid stays
// bit-exact against Sequential, and a time-only run returns what the full
// run does.
func TestSimQueuedBordersStayExact(t *testing.T) {
	vec := core.Vector{10, 10, 10}
	n, cfg := vec.Sum(), paperConfig(3, 0)
	const iters = 10 // runBoth's
	want := Sequential(NewGrid(n), iters)
	for _, c := range []timeOnlyCase{
		{name: "slow middle rank", opts: func() AdaptiveOptions {
			return AdaptiveOptions{Slowdown: func(rank, _ int) float64 {
				if rank == 1 {
					return 8
				}
				return 1
			}}
		}},
		{name: "delayed link", opts: func() AdaptiveOptions {
			return AdaptiveOptions{Injector: faults.NewEngine(faults.MustParse("delay:0.5,20"), 7, nil)}
		}},
	} {
		c.cfg, c.vec = cfg, vec
		for _, v := range []Variant{STEN1, STEN2} {
			c.v = v
			res, err := RunSimAdaptive(model.PaperTestbed(), cfg, vec, v, n, iters, c.opts())
			if err != nil {
				t.Fatalf("%s %s: %v", c.name, v, err)
			}
			if !gridsEqual(res.Grid, want) {
				t.Errorf("%s %s: grid differs from Sequential", c.name, v)
			}
			runBoth(t, c)
		}
	}
}
