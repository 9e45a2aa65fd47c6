package stencil

import (
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"netpart/internal/core"
	"netpart/internal/mmps"
	"netpart/internal/model"
)

// entryPoints runs every stencil entry point on one (vector, variant)
// problem and hands each final grid, or error, to report. P is len(vec);
// udp adds RunLive over loopback UDP.
func entryPoints(t *testing.T, vec core.Vector, v Variant, n, iters int, udp bool, report func(name string, grid [][]float64, err error)) {
	t.Helper()
	tasks := len(vec)
	net := model.PaperTestbed()
	p1 := tasks
	if p1 > 6 {
		p1 = 6
	}
	cfg := paperConfig(p1, tasks-p1)
	slow := func(rank, iter int) float64 {
		if rank == tasks-1 && iter >= 2 {
			return 5
		}
		return 1
	}
	factors := make([]int, tasks)
	for r := range factors {
		factors[r] = 1
	}
	factors[0] = 6

	sim, err := RunSim(net, cfg, vec, v, n, iters)
	report("RunSim", sim.Grid, err)
	for name, opts := range map[string]AdaptiveOptions{
		"RunSimAdaptive/idle":      {},
		"RunSimAdaptive/rebalance": {RebalanceEvery: 3, Slowdown: slow},
		"RunSimAdaptive/converge":  {Tol: 1e-300}, // unreachable: runs all iters
	} {
		res, err := RunSimAdaptive(net, cfg, vec, v, n, iters, opts)
		report(name, res.Grid, err)
	}

	live := func(name string, world []mmps.Transport, run func([]mmps.Transport) ([][]float64, error)) {
		grid, err := run(world)
		closeWorld(world)
		report(name, grid, err)
	}
	live("RunLive/local", localWorld(t, tasks), func(w []mmps.Transport) ([][]float64, error) {
		res, err := RunLive(w, vec, v, n, iters, nil)
		return res.Grid, err
	})
	if udp {
		live("RunLive/udp", udpWorld(t, tasks), func(w []mmps.Transport) ([][]float64, error) {
			res, err := RunLive(w, vec, v, n, iters, nil)
			return res.Grid, err
		})
	}
	live("RunLiveMonitored", localWorld(t, tasks), func(w []mmps.Transport) ([][]float64, error) {
		res, err := RunLiveMonitored(w, vec, v, n, iters, nil, nil, nil, nil)
		return res.Grid, err
	})
	live("RunLiveAdaptive/idle", localWorld(t, tasks), func(w []mmps.Transport) ([][]float64, error) {
		res, err := RunLiveAdaptive(w, vec, v, n, iters, LiveAdaptiveOptions{})
		return res.Grid, err
	})
	live("RunLiveAdaptive/rebalance", localWorld(t, tasks), func(w []mmps.Transport) ([][]float64, error) {
		res, err := RunLiveAdaptive(w, vec, v, n, iters, LiveAdaptiveOptions{RebalanceEvery: 3, WorkFactor: factors})
		return res.Grid, err
	})
	live("RunLiveFT", localWorld(t, tasks), func(w []mmps.Transport) ([][]float64, error) {
		res, err := RunLiveFT(w, vec, v, n, iters, FTOptions{})
		return res.Grid, err
	})
}

// TestDifferential drives seeded random (N, P, vector, variant) problems —
// vectors with 1- and 2-row ranks included — through every entry point and
// policy and requires each final grid to be bit-equal to Sequential.
func TestDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(1994))
	const cases, iters = 12, 7
	for c := 0; c < cases; c++ {
		tasks := c%6 + 1
		n := tasks + 2 + rng.Intn(30)
		// Every rank starts with one row; the rest land on random ranks, but
		// rank c%tasks keeps one row and its neighbour at most two.
		vec := make(core.Vector, tasks)
		for r := range vec {
			vec[r] = 1
		}
		one, two := c%tasks, (c+1)%tasks
		for left := n - tasks; left > 0; {
			r := rng.Intn(tasks)
			if tasks > 2 && (r == one || (r == two && vec[r] == 2)) {
				continue
			}
			vec[r]++
			left--
		}
		v := Variant(c % 2)
		want := Sequential(NewGrid(n), iters)
		entryPoints(t, vec, v, n, iters, c < 4, func(name string, grid [][]float64, err error) {
			if err != nil {
				t.Errorf("N=%d %v %s %s: %v", n, vec, v, name, err)
			} else if !gridsEqual(grid, want) {
				t.Errorf("N=%d %v %s %s: grid differs from Sequential", n, vec, v, name)
			}
		})
	}
}

// TestZeroRowEntriesRejected: a rank without rows has no border to send, so
// its neighbours would wait on it until the transport timeout (and STEN-2
// would index past its block). Every entry point must refuse such a vector
// up front, quickly, naming the rank.
func TestZeroRowEntriesRejected(t *testing.T) {
	for _, tc := range []struct {
		vec  core.Vector
		rank string
	}{
		{core.Vector{0, 8}, "rank 0"},
		{core.Vector{8, 0}, "rank 1"},
		{core.Vector{4, 0, 4}, "rank 1"},
		{core.Vector{9, -1}, "rank 1"},
	} {
		for _, v := range []Variant{STEN1, STEN2} {
			start := time.Now()
			seen := 0
			entryPoints(t, tc.vec, v, 8, 3, true, func(name string, _ [][]float64, err error) {
				seen++
				if err == nil {
					t.Errorf("%v %s %s: accepted", tc.vec, v, name)
				} else if msg := err.Error(); !strings.HasPrefix(msg, "stencil:") || !strings.Contains(msg, tc.rank) {
					t.Errorf("%v %s %s: error %q does not name %s", tc.vec, v, name, msg, tc.rank)
				}
			})
			if seen != 10 {
				t.Errorf("%v %s: %d entry points reported, want 10", tc.vec, v, seen)
			}
			// The budget is per entry point; world construction is included.
			if d := time.Since(start); d > time.Duration(seen)*100*time.Millisecond {
				t.Errorf("%v %s: rejection took %v", tc.vec, v, d)
			}
		}
	}
}

// cycleLog is a CycleSink that keeps every observation.
type cycleLog struct {
	mu              sync.Mutex
	cycle, exchange map[[2]int]float64
	exchangeCalls   int
}

func newCycleLog() *cycleLog {
	return &cycleLog{cycle: map[[2]int]float64{}, exchange: map[[2]int]float64{}}
}

func (l *cycleLog) OnCycle(task, cycle int, ms float64) {
	l.mu.Lock()
	l.cycle[[2]int{task, cycle}] = ms
	l.mu.Unlock()
}

func (l *cycleLog) OnExchange(task, cycle int, ms float64) {
	l.mu.Lock()
	l.exchange[[2]int{task, cycle}] = ms
	l.exchangeCalls++
	l.mu.Unlock()
}

// TestSimReportsExchangeTime: the simulated runtimes deliver one exchange
// observation per task per cycle, in virtual time, never larger than the
// cycle it belongs to, and positive wherever a rank has a neighbour.
func TestSimReportsExchangeTime(t *testing.T) {
	const n, iters, tasks = 36, 5, 4
	net := model.PaperTestbed()
	cfg := paperConfig(2, 2)
	vec, err := core.Decompose(net, cfg, n, model.OpFloat)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []Variant{STEN1, STEN2} {
		log := newCycleLog()
		if _, err := RunSimAdaptive(net, cfg, vec, v, n, iters, AdaptiveOptions{Cycles: log}); err != nil {
			t.Fatal(err)
		}
		if log.exchangeCalls != tasks*iters || len(log.exchange) != tasks*iters {
			t.Errorf("%s: %d OnExchange calls over %d (task, cycle) keys, want %d each",
				v, log.exchangeCalls, len(log.exchange), tasks*iters)
		}
		for key, ex := range log.exchange {
			cyc, ok := log.cycle[key]
			if !ok || ex <= 0 || ex > cyc {
				t.Errorf("%s task %d cycle %d: exchange %v ms against cycle %v ms (reported %v)", v, key[0], key[1], ex, cyc, ok)
			}
		}
	}
}

// TestLiveExchangeTimeExcludesInteriorCompute: on STEN-2 the exchange time
// is the sends plus the receive waits, not the interior update they overlap
// with. Rank 1 repeats its row work eight times, so its update dominates
// its cycle and its lighter neighbour's borders are always waiting for it:
// its summed exchange time must stay under half its summed cycle time.
// Bracketing the interior update, as the live runtime once did, puts it
// above 90 %. (Rank 0 legitimately spends most of each cycle waiting for
// rank 1; for it the exchange can only be checked against the cycle.)
func TestLiveExchangeTimeExcludesInteriorCompute(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("ranks time-share one CPU: a receive wait then spans the neighbour's compute")
	}
	const n, iters = 512, 12
	world := localWorld(t, 2)
	defer closeWorld(world)
	log := newCycleLog()
	if _, err := RunLiveMonitored(world, core.Vector{n / 2, n / 2}, STEN2, n, iters, []int{1, 8}, nil, nil, log); err != nil {
		t.Fatal(err)
	}
	var sum [2]struct{ ex, cyc float64 }
	for rank := range sum {
		for it := 0; it < iters; it++ {
			sum[rank].ex += log.exchange[[2]int{rank, it}]
			sum[rank].cyc += log.cycle[[2]int{rank, it}]
		}
		if sum[rank].cyc <= 0 || sum[rank].ex > sum[rank].cyc {
			t.Errorf("rank %d: exchange %.3f ms of %.3f ms cycle time", rank, sum[rank].ex, sum[rank].cyc)
		}
	}
	if sum[1].ex >= sum[1].cyc/2 {
		t.Errorf("loaded rank: exchange %.3f ms of %.3f ms cycle time, want under half", sum[1].ex, sum[1].cyc)
	}
}

// FuzzHaloFrame: parseHaloFrame must reject or decode arbitrary bytes
// without panicking, and whatever it decodes must survive a trip back
// through appendHaloFrame — row, cycle and values, bit for bit.
func FuzzHaloFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, 0, 0, 0, 2})
	f.Add(appendHaloFrame(nil, 41, 7, []float64{1.5, -2.25, math.Inf(1), math.NaN(), 1e-300}))
	f.Add(appendHaloFrame(nil, math.MaxUint32, math.MaxUint32, []float64{1})[:11]) // torn value
	f.Fuzz(func(t *testing.T, data []byte) {
		g, cycle, vals, err := parseHaloFrame(data, nil)
		if err != nil {
			return
		}
		frame := appendHaloFrame(nil, g, cycle, vals)
		g2, cycle2, vals2, err := parseHaloFrame(frame, make([]float64, 0, len(vals)))
		if err != nil {
			t.Fatalf("re-encoded frame does not parse: %v", err)
		}
		if g2 != g || cycle2 != cycle || len(vals2) != len(vals) {
			t.Fatalf("round trip (%d, %d, %d values) -> (%d, %d, %d values)", g, cycle, len(vals), g2, cycle2, len(vals2))
		}
		for i := range vals {
			if math.Float64bits(vals[i]) != math.Float64bits(vals2[i]) {
				t.Fatalf("value %d: %x -> %x", i, math.Float64bits(vals[i]), math.Float64bits(vals2[i]))
			}
		}
	})
}
