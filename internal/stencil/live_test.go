package stencil

import (
	"runtime"
	"testing"
	"time"

	"netpart/internal/core"
	"netpart/internal/mmps"
)

func localWorld(t *testing.T, n int) []mmps.Transport {
	t.Helper()
	eps, err := mmps.NewLocalWorld(n, mmps.WithRecvTimeout(20*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	out := make([]mmps.Transport, n)
	for i, ep := range eps {
		out[i] = ep
	}
	return out
}

func udpWorld(t *testing.T, n int) []mmps.Transport {
	t.Helper()
	eps, err := mmps.NewUDPWorld(n, mmps.WithRecvTimeout(30*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	out := make([]mmps.Transport, n)
	for i, ep := range eps {
		out[i] = ep
	}
	return out
}

func closeWorld(world []mmps.Transport) {
	for _, tr := range world {
		tr.Close()
	}
}

// TestLiveOnOneProcLosesNoWakeup: with every rank on one processor, nearly
// every receive blocks before its neighbour has sent, so a delivery that
// failed to wake its receiver would stall the run into the receive timeout.
// It finishes, bit-exact, on both variants.
func TestLiveOnOneProcLosesNoWakeup(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const n, iters = 48, 2000
	want := Sequential(NewGrid(n), iters)
	for _, v := range []Variant{STEN1, STEN2} {
		eps, err := mmps.NewLocalWorld(4, mmps.WithRecvTimeout(5*time.Second))
		if err != nil {
			t.Fatal(err)
		}
		world := []mmps.Transport{eps[0], eps[1], eps[2], eps[3]}
		res, err := Live(world, core.Vector{12, 12, 12, 12}, v, n, iters, Options{})
		closeWorld(world)
		if err != nil {
			t.Fatalf("%s: %v", v, err)
		}
		if !gridsEqual(res.Grid, want) {
			t.Errorf("%s: live grid differs from sequential", v)
		}
	}
}

func TestLiveMatchesSequentialLocalTransport(t *testing.T) {
	const n, iters = 32, 6
	want := Sequential(NewGrid(n), iters)
	for _, v := range []Variant{STEN1, STEN2} {
		world := localWorld(t, 4)
		vec := core.Vector{8, 8, 8, 8}
		res, err := Live(world, vec, v, n, iters, Options{})
		closeWorld(world)
		if err != nil {
			t.Fatalf("%s: %v", v, err)
		}
		if !gridsEqual(res.Grid, want) {
			t.Errorf("%s: live grid differs from sequential", v)
		}
		if res.Elapsed <= 0 {
			t.Errorf("%s: elapsed %v", v, res.Elapsed)
		}
	}
}

func TestLiveMatchesSequentialUDPTransport(t *testing.T) {
	const n, iters = 24, 4
	want := Sequential(NewGrid(n), iters)
	for _, v := range []Variant{STEN1, STEN2} {
		world := udpWorld(t, 3)
		vec := core.Vector{8, 10, 6} // deliberately uneven
		res, err := Live(world, vec, v, n, iters, Options{})
		closeWorld(world)
		if err != nil {
			t.Fatalf("%s: %v", v, err)
		}
		if !gridsEqual(res.Grid, want) {
			t.Errorf("%s: live UDP grid differs from sequential", v)
		}
	}
}

func TestLiveHeterogeneousWorkFactors(t *testing.T) {
	// Work factors change timing, never results.
	const n, iters = 24, 4
	want := Sequential(NewGrid(n), iters)
	world := localWorld(t, 3)
	defer closeWorld(world)
	res, err := Live(world, core.Vector{12, 6, 6}, STEN2, n, iters, Options{WorkFactor: []int{1, 2, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if !gridsEqual(res.Grid, want) {
		t.Error("work factors changed numerics")
	}
}

func TestLiveSingleTask(t *testing.T) {
	const n, iters = 16, 5
	want := Sequential(NewGrid(n), iters)
	world := localWorld(t, 1)
	defer closeWorld(world)
	res, err := Live(world, core.Vector{n}, STEN1, n, iters, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !gridsEqual(res.Grid, want) {
		t.Error("single live task differs from sequential")
	}
}

func TestLiveValidatesInputs(t *testing.T) {
	world := localWorld(t, 2)
	defer closeWorld(world)
	if _, err := Live(world, core.Vector{4}, STEN1, 8, 1, Options{}); err == nil {
		t.Error("vector/world mismatch should error")
	}
	if _, err := Live(world, core.Vector{4, 5}, STEN1, 8, 1, Options{}); err == nil {
		t.Error("vector/N mismatch should error")
	}
	if _, err := Live(world, core.Vector{4, 4}, STEN1, 8, 1, Options{WorkFactor: []int{1}}); err == nil {
		t.Error("work factor length mismatch should error")
	}
	if _, err := Live(nil, core.Vector{}, STEN1, 0, 1, Options{}); err == nil {
		t.Error("empty world should error")
	}
}

func TestLiveAdaptiveBitExactUnderMigration(t *testing.T) {
	// Wall-clock measurements make rebalancing decisions nondeterministic,
	// but the result must be bit-exact with the sequential kernel for any
	// rebalancing sequence.
	const n, iters = 64, 16
	want := Sequential(NewGrid(n), iters)
	for _, kind := range []string{"local", "udp"} {
		t.Run(kind, func(t *testing.T) {
			var world []mmps.Transport
			if kind == "local" {
				world = localWorld(t, 4)
			} else {
				world = udpWorld(t, 4)
			}
			defer closeWorld(world)
			vec := core.Vector{16, 16, 16, 16}
			res, err := Live(world, vec, STEN2, n, iters, Options{
				RebalanceEvery: 4,
				WorkFactor:     []int{1, 8, 1, 1}, // rank 1 is 8x slower
			})
			if err != nil {
				t.Fatal(err)
			}
			if !gridsEqual(res.Grid, want) {
				t.Error("live adaptive grid differs from sequential")
			}
			if res.FinalVector.Sum() != n {
				t.Errorf("final vector sums to %d", res.FinalVector.Sum())
			}
			if res.Elapsed <= 0 {
				t.Error("no elapsed time")
			}
		})
	}
}

func TestLiveAdaptiveShedsLoadedRank(t *testing.T) {
	// With heavy compute the wall-clock measurements are reliable enough
	// that the slowed rank ends with fewer rows than it started with. The
	// factor is large because the vector kernel is fast and, being assembly,
	// is not slowed by the race detector the way everything around it is:
	// 64 repeats keep the loaded rank's update at a couple of milliseconds
	// a cycle, well clear of scheduling jitter on the other two.
	const n, iters = 512, 12
	world := localWorld(t, 3)
	defer closeWorld(world)
	vec := core.Vector{171, 171, 170}
	res, err := Live(world, vec, STEN1, n, iters, Options{
		RebalanceEvery: 3,
		WorkFactor:     []int{1, 64, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rebalances == 0 {
		t.Skip("wall clock too coarse to trigger a rebalance on this machine")
	}
	if res.FinalVector[1] >= vec[1] {
		t.Errorf("loaded rank still holds %d rows (started with %d): %v",
			res.FinalVector[1], vec[1], res.FinalVector)
	}
	want := Sequential(NewGrid(n), iters)
	if !gridsEqual(res.Grid, want) {
		t.Error("numerics changed")
	}
}

// TestLiveLinkRecvDecodesIntoGhostRow: the live link decodes a border of the
// ghost row's length into that row's own words, and a border of any other
// length writes nothing past the row, so the driver's length check sees it
// before anything beyond the ghost row has changed.
func TestLiveLinkRecvDecodesIntoGhostRow(t *testing.T) {
	const n = 20
	world := localWorld(t, 2)
	defer closeWorld(world)
	send, recv := newLiveLink(world[0], time.Now(), n+1, 0), newLiveLink(world[1], time.Now(), n, 0)
	const guardWord = -7.5
	for _, width := range []int{n, n + 1, n - 1} {
		row := make([]float64, width)
		for i := range row {
			row[i] = float64(i) + 0.5
		}
		if err := send.Send(1, halo{3, 9, row}); err != nil {
			t.Fatal(err)
		}
		backing := make([]float64, n+2) // the ghost row with a neighbour word on each side
		for i := range backing {
			backing[i] = guardWord
		}
		into := backing[1 : 1+n]
		h, err := recv.Recv(0, into)
		if err != nil {
			t.Fatal(err)
		}
		if h.row != 3 || h.cycle != 9 || len(h.vals) != width {
			t.Fatalf("width %d: received row %d cycle %d with %d values", width, h.row, h.cycle, len(h.vals))
		}
		if backing[0] != guardWord || backing[n+1] != guardWord {
			t.Fatalf("width %d: a word beside the ghost row changed: %v", width, backing)
		}
		if width == n {
			if &h.vals[0] != &into[0] {
				t.Fatal("a border of the row's length was not decoded into the ghost row")
			}
			for i := range row {
				if into[i] != row[i] {
					t.Fatalf("ghost row[%d] = %v, want %v", i, into[i], row[i])
				}
			}
		}
	}
}
