package stencil

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"netpart/internal/core"
	"netpart/internal/faults"
	"netpart/internal/model"
	"netpart/internal/obs"
	"netpart/internal/spmd"
	"netpart/internal/topo"
)

// policies are the options a run can combine. TestDifferential runs every
// subset of them through both entry points; each set adds its policy to a
// run of tasks ranks. Tol is unreachable, so a run that honours it still
// runs every cycle.
var policies = []struct {
	name string
	set  func(o *Options, tasks int)
}{
	{"load", func(o *Options, tasks int) {
		o.WorkFactor = make([]int, tasks)
		for r := range o.WorkFactor {
			o.WorkFactor[r] = 1
		}
		o.WorkFactor[0] = 6
		o.Slowdown = func(rank, iter int) float64 {
			if rank == tasks-1 && iter >= 2 {
				return 5
			}
			return 1
		}
		o.Injector = faults.NewEngine(faults.Schedule{Slows: []faults.Slow{{Rank: tasks / 2, Factor: 3, FromCycle: 1, ToCycle: 4}}}, 1, nil)
	}},
	{"tol", func(o *Options, _ int) { o.Tol = 1e-300 }},
	{"rebalance", func(o *Options, _ int) { o.RebalanceEvery = 3 }},
	{"observe", func(o *Options, _ int) {
		o.Metrics, o.Trace, o.Cycles = obs.NewRegistry(), obs.NewRecorder(nil), newCycleLog()
	}},
	{"timeonly", func(o *Options, _ int) { o.TimeOnly = true }},
	{"ft", func(o *Options, _ int) { o.FT = &FT{} }},
}

// refusedField is the option field an entry point must refuse a policy
// set by, or "" when it must run the set.
func refusedField(live bool, set map[string]bool) string {
	switch {
	case live && set["timeonly"]:
		return "TimeOnly"
	case !live && set["ft"]:
		return "FT"
	case set["tol"] && (set["timeonly"] || set["ft"]):
		return "Tol"
	case set["ft"] && set["rebalance"]:
		return "RebalanceEvery"
	}
	return ""
}

// combinations runs every subset of policies through Sim and Live (over
// in-memory transports; udp adds a plain Live run over loopback UDP) on one
// (vector, variant) problem. Each run must be refused by name exactly when
// refusedField says so, and otherwise end bit-equal to the seed kernel's
// grid after every cycle; a time-only run has no grid, and must take the
// virtual time of the same run with the grid.
func combinations(t *testing.T, vec core.Vector, v Variant, n, iters int, udp bool) {
	t.Helper()
	tasks := len(vec)
	p1 := min(tasks, 6)
	cfg := paperConfig(p1, tasks-p1)
	want := seedSequential(NewGrid(n), iters)
	simMs := map[int]float64{} // by policy mask
	timeOnly := 0
	for mask := 0; mask < 1<<len(policies); mask++ {
		set := map[string]bool{}
		var names []string
		for i, p := range policies {
			if mask&(1<<i) != 0 {
				set[p.name] = true
				names = append(names, p.name)
			}
			if p.name == "timeonly" {
				timeOnly = 1 << i
			}
		}
		for _, live := range []bool{false, true} {
			var opts Options
			for _, p := range policies {
				if set[p.name] {
					p.set(&opts, tasks)
				}
			}
			name := fmt.Sprintf("N=%d %v %s %s%v", n, vec, v, runtimeName(live), names)
			var res Result
			var err error
			if live {
				world := localWorld(t, tasks)
				res, err = Live(world, vec, v, n, iters, opts)
				closeWorld(world)
			} else {
				res, err = Sim(model.PaperTestbed(), cfg, vec, v, n, iters, opts)
			}
			if field := refusedField(live, set); field != "" {
				if err == nil || !strings.Contains(err.Error(), "cannot honour Options."+field+":") {
					t.Errorf("%s: returned %v, want a refusal naming Options.%s", name, err, field)
				}
				continue
			}
			switch {
			case err != nil:
				t.Errorf("%s: %v", name, err)
			case res.Iterations != iters:
				t.Errorf("%s: ran %d cycles, want %d", name, res.Iterations, iters)
			case set["timeonly"]:
				if full := simMs[mask&^timeOnly]; res.Grid != nil || res.ElapsedMs != full {
					t.Errorf("%s: grid %v, %v ms, want no grid and the full run's %v ms", name, res.Grid != nil, res.ElapsedMs, full)
				}
			case !gridsEqual(res.Grid, want):
				t.Errorf("%s: grid differs from the seed kernel's", name)
			case !live:
				simMs[mask] = res.ElapsedMs
			}
		}
	}
	if udp {
		world := udpWorld(t, tasks)
		res, err := Live(world, vec, v, n, iters, Options{})
		closeWorld(world)
		if err != nil || !gridsEqual(res.Grid, want) {
			t.Errorf("N=%d %v %s Live over UDP: grid equal %v, error %v", n, vec, v, err == nil && gridsEqual(res.Grid, want), err)
		}
	}
}

// TestDifferential drives seeded random (N, P, vector, variant) problems —
// vectors with 1- and 2-row ranks included — through every combination of
// policies on both entry points, on each kernel path with clean and with
// poisoned blocks, and requires each final grid to be bit-equal to the seed
// kernel's.
func TestDifferential(t *testing.T) {
	eachKernelPoisoned(t, func(t *testing.T) {
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
			combinations(t, vec, Variant(c%2), n, iters, c < 4)
		}
	})
}

// cycleLog is a CycleSink that keeps every observation.
type cycleLog struct {
	mu              sync.Mutex
	cycle, exchange map[[2]int]float64
	order           map[int][]int // each task's cycles in call order
	calls           int
}

func newCycleLog() *cycleLog {
	return &cycleLog{cycle: map[[2]int]float64{}, exchange: map[[2]int]float64{}, order: map[int][]int{}}
}

func (l *cycleLog) OnCycle(task, cycle int, cycleMs, exchangeMs float64) {
	l.mu.Lock()
	key := [2]int{task, cycle}
	l.cycle[key], l.exchange[key] = cycleMs, exchangeMs
	l.order[task] = append(l.order[task], cycle)
	l.calls++
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
		if _, err := Sim(net, cfg, vec, v, n, iters, Options{Cycles: log}); err != nil {
			t.Fatal(err)
		}
		if log.calls != tasks*iters || len(log.exchange) != tasks*iters {
			t.Errorf("%s: %d OnCycle calls over %d (task, cycle) keys, want %d each",
				v, log.calls, len(log.exchange), tasks*iters)
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
// with. Rank 1 repeats its row work 64 times (some 3 ms a cycle with the
// vector kernel, well above a scheduler hiccup on a busy box), so its update
// dominates its cycle and its lighter neighbour's borders are always waiting
// for it:
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
	if _, err := Live(world, core.Vector{n / 2, n / 2}, STEN2, n, iters, Options{WorkFactor: []int{1, 64}, Cycles: log}); err != nil {
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

// TestResultGridOwnedByCaller: the rows Sim returns are views of the
// ranks' blocks, which no run keeps or recycles. Later runs of the same size
// must therefore leave an earlier result alone. Enough iterations that the
// hot edge has reached every row: a block written by a later run differs
// from the held one everywhere.
func TestResultGridOwnedByCaller(t *testing.T) {
	const n, iters = 64, 70
	net := model.PaperTestbed()
	cfg := paperConfig(2, 2)
	want := Sequential(NewGrid(n), iters)
	first, err := Sim(net, cfg, core.Vector{16, 16, 16, 16}, STEN2, n, iters, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, vec := range []core.Vector{{16, 16, 16, 16}, {12, 20, 12, 20}, {10, 22, 22, 10}} {
		for _, v := range []Variant{STEN1, STEN2} {
			res, err := Sim(net, cfg, vec, v, n, iters+1, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if gridsEqual(res.Grid, want) {
				t.Fatalf("%v %s: %d iterations equal %d", vec, v, iters+1, iters)
			}
		}
	}
	if !gridsEqual(first.Grid, want) {
		t.Error("a later run wrote into an earlier run's result grid")
	}
}

// TestSimIndependentOfGOMAXPROCS: overlapping the ranks' updates in wall
// time must not be visible in virtual time or in any grid bit, whether the
// updates share one core or spread over four — also when the worker writes
// the convergence delta, and across a rebalance's block replacement.
func TestSimIndependentOfGOMAXPROCS(t *testing.T) {
	const n, iters = 160, 9 // 40-row spans at four ranks
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	net := model.PaperTestbed()
	cfg := paperConfig(2, 2)
	vec := core.Vector{40, 40, 40, 40}
	slow := func(rank, iter int) float64 {
		if rank == 3 && iter >= 2 {
			return 4
		}
		return 1
	}
	for name, opts := range map[string]Options{
		"plain":     {},
		"converge":  {Tol: 4}, // reached after 7 of the 9 iterations
		"rebalance": {RebalanceEvery: 3, Slowdown: slow},
	} {
		for _, v := range []Variant{STEN1, STEN2} {
			var ref Result
			for _, procs := range []int{1, 2, 4} {
				runtime.GOMAXPROCS(procs)
				res, err := Sim(net, cfg, vec, v, n, iters, opts)
				if err != nil {
					t.Fatalf("%s %s GOMAXPROCS=%d: %v", name, v, procs, err)
				}
				if procs == 1 {
					ref = res
					want := Sequential(NewGrid(n), res.Iterations)
					if !gridsEqual(res.Grid, want) {
						t.Errorf("%s %s: grid differs from Sequential after %d iterations", name, v, res.Iterations)
					}
					if name == "rebalance" && res.Rebalances == 0 {
						t.Errorf("%s %s: no rebalance happened", name, v)
					}
					if name == "converge" && res.Iterations != 7 {
						t.Errorf("%s %s: stopped after %d iterations, want 7", name, v, res.Iterations)
					}
					continue
				}
				// Plans carry a wall-clock planning latency; their rendering omits it.
				if res.ElapsedMs != ref.ElapsedMs || !reflect.DeepEqual(res.Report, ref.Report) ||
					fmt.Sprint(res.Plans) != fmt.Sprint(ref.Plans) || res.FinalDelta != ref.FinalDelta ||
					!gridsEqual(res.Grid, ref.Grid) {
					t.Errorf("%s %s: GOMAXPROCS=%d differs from 1 (elapsed %v against %v ms)",
						name, v, procs, res.ElapsedMs, ref.ElapsedMs)
				}
			}
		}
	}
}

// TestRunSimAllocationCeiling: a run allocates one block per rank — rows + 3
// storage rows, which leave as the result — a two-row stash per rank and the
// simulator's copy of every border sent, and there is no pool to warm: the
// first run is held to that sum plus a tenth for the runtime's own state (two
// blocks per rank, one of them pooled, made a cold run 2.5 grids; this is 1.5).
func TestRunSimAllocationCeiling(t *testing.T) {
	const n, iters = 600, 10
	net := model.PaperTestbed()
	cfg := paperConfig(6, 6)
	vec, err := core.Decompose(net, cfg, n, model.OpFloat)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := Sim(net, cfg, vec, STEN1, n, iters, Options{})
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	tasks := len(vec)
	values := (n+3*tasks)*n + 2*tasks*n + 2*(tasks-1)*iters*n
	if got, ceiling := after.TotalAlloc-before.TotalAlloc, uint64(8*values*11/10); got > ceiling {
		t.Errorf("Sim(N=%d, 6+6) allocated %d bytes, want at most %d (%.2f grids)", n, got, ceiling, float64(ceiling)/(8*n*n))
	}
	// After an even number of cycles a rank's first data row is storage row 2
	// again, so what follows it in the block is its capacity.
	off := 0
	for rank, rows := range vec {
		if got := cap(res.Grid[off]) + 2*n; got != (rows+3)*n {
			t.Errorf("rank %d: block of %d values for %d rows of %d, want (rows + 3) x width", rank, got, rows, n)
		}
		off += rows
	}
}

// brokenLink is a simLink whose rank 1 loses its block's storage just before
// an update, so the update indexes past it.
type brokenLink struct{ *simLink }

func (l brokenLink) compute(s *rankState, lo, hi int, factor float64) {
	if l.Rank() == 1 {
		s.cur.cells = nil
	}
	l.simLink.compute(s, lo, hi, factor)
}

// TestOverlappedUpdatePanicIsAnError: a panic in an update that simLink
// runs on a worker goroutine (64 rows of 128 points is past overlapPoints)
// must come back as the simulator's "task panicked" error, like a panic on
// the rank's own goroutine, and not end the process.
func TestOverlappedUpdatePanicIsAnError(t *testing.T) {
	const n = 128
	vec := core.Vector{n / 2, n / 2}
	names, counts := paperConfig(2, 0).Active()
	pl, err := topo.Contiguous(names, counts)
	if err != nil {
		t.Fatal(err)
	}
	j, err := newJob(false, vec, pl.NumTasks(), STEN1, n, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	errs := make([]error, len(vec))
	_, err = spmd.Run(spmd.Job{
		Net: model.PaperTestbed(), Placement: pl, Vector: vec, Topology: topo.OneD{},
		Body: func(t *spmd.Task) { errs[t.Rank()] = j.runRank(brokenLink{&simLink{t: t}}) },
	})
	if _, err = j.finish(errs, err); err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("run returned %v, want the simulator's task-panicked error", err)
	}
}

// countingLink is a simLink that counts its clock readings.
type countingLink struct {
	*simLink
	reads *int
}

func (l countingLink) nowMs() float64 {
	*l.reads++
	return l.simLink.nowMs()
}

// TestDriverClockReads: the cycle driver reads the clock once on entry and
// then at most 3 times per STEN-1 cycle (after the sends, after the
// receives, at the end) and 4 per STEN-2 cycle (the receives get a start of
// their own) in a run that does not repartition, on edge and middle ranks,
// with one rank loaded. The reads it leaves out are the ones nothing used.
func TestDriverClockReads(t *testing.T) {
	const n, iters = 64, 7
	vec := core.Vector{16, 16, 16, 16}
	names, counts := paperConfig(2, 2).Active()
	pl, err := topo.Contiguous(names, counts)
	if err != nil {
		t.Fatal(err)
	}
	for v, perCycle := range map[Variant]int{STEN1: 3, STEN2: 4} {
		j, err := newJob(false, vec, pl.NumTasks(), v, n, iters, Options{})
		if err != nil {
			t.Fatal(err)
		}
		j.load = func(rank, _ int) float64 { return float64(1 + rank%2) }
		errs, reads := make([]error, len(vec)), make([]int, len(vec))
		_, err = spmd.Run(spmd.Job{
			Net: model.PaperTestbed(), Placement: pl, Vector: vec, Topology: topo.OneD{},
			Body: func(t *spmd.Task) { errs[t.Rank()] = j.runRank(countingLink{&simLink{t: t}, &reads[t.Rank()]}) },
		})
		if _, err = j.finish(errs, err); err != nil {
			t.Fatal(err)
		}
		for rank, got := range reads {
			if want := 1 + perCycle*iters; got > want {
				t.Errorf("%s rank %d: %d clock reads over %d cycles, want at most %d", v, rank, got, iters, want)
			}
		}
	}
}

// TestDriverDegenerateRuns: no iterations returns the initial condition
// straight from the ranks' blocks, and a single rank has no ghost row that
// is ever received — its never-written ghost storage must not reach the
// result, on the inline path (N = 24) and on the goroutine path (N = 80).
// Then the shapes that leave the in-place sweep no room: every rank one row
// (P = N), and ranks of exactly two rows — STEN-2 has no interior span there,
// and on a downward sweep the first edge row overwrites the second's operand —
// first, in the middle and last, through every entry point, for an even and an
// odd number of cycles (the result is published from either parity); runs that
// a tolerance stops; a rebalance that migrates rows out of a block after an odd
// number of cycles; and a crash that makes the ranks next to it abandon a cycle
// between the interior span and the edge rows, with the block half updated.
func TestDriverDegenerateRuns(t *testing.T) {
	net := model.PaperTestbed()
	for _, v := range []Variant{STEN1, STEN2} {
		res, err := Sim(net, paperConfig(2, 1), core.Vector{1, 2, 21}, v, 24, 0, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !gridsEqual(res.Grid, NewGrid(24)) {
			t.Errorf("%s: zero iterations changed the initial grid", v)
		}
		for _, n := range []int{24, 80} {
			for _, iters := range []int{1, 4} {
				res, err := Sim(net, paperConfig(1, 0), core.Vector{n}, v, n, iters, Options{})
				if err != nil {
					t.Fatal(err)
				}
				if !gridsEqual(res.Grid, Sequential(NewGrid(n), iters)) {
					t.Errorf("%s N=%d P=1 iters=%d: grid differs from Sequential", v, n, iters)
				}
			}
		}

		for _, vec := range []core.Vector{{1, 1, 1, 1, 1, 1, 1, 1}, {2, 5, 2, 6, 2}} {
			n, tasks := vec.Sum(), len(vec)
			for _, iters := range []int{6, 7} {
				combinations(t, vec, v, n, iters, false)
			}
			cfg := paperConfig(min(tasks, 6), tasks-min(tasks, 6))
			stops := map[bool]bool{}
			for _, tol := range []float64{3, 2, 1.5} {
				want, iters, delta := SequentialUntil(NewGrid(n), tol, 40)
				res, err := Sim(net, cfg, vec, v, n, 40, Options{Tol: tol})
				if err != nil {
					t.Fatal(err)
				}
				if res.Iterations != iters || res.FinalDelta != delta || !gridsEqual(res.Grid, want) {
					t.Errorf("%v %s tol %v: stopped after %d cycles at delta %v, Sequential after %d at %v (grids equal: %v)",
						vec, v, tol, res.Iterations, res.FinalDelta, iters, delta, gridsEqual(res.Grid, want))
				}
				stops[iters%2 == 0] = true
			}
			if len(stops) != 2 {
				t.Errorf("%v: the three tolerances stop on one parity only", vec)
			}
		}

		vec := core.Vector{2, 5, 2, 6, 2}
		ad, err := Sim(net, paperConfig(5, 0), vec, v, 17, 8, Options{
			RebalanceEvery: 3,
			Slowdown: func(rank, iter int) float64 {
				if rank == 3 {
					return 6
				}
				return 1
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(ad.Plans) == 0 || !ad.Plans[0].Changed() {
			t.Errorf("%s: the round after 3 cycles moved no rows: %v", v, ad.Plans)
		}
		if !gridsEqual(ad.Grid, Sequential(NewGrid(17), 8)) {
			t.Errorf("%s: grid differs from Sequential after a migration at cycle 3", v)
		}
	}

	// Rank 1 stops before its sends of cycle 5. Ranks 0 and 2 have by then swept
	// their interiors for that cycle and wait for its border until the verdict;
	// everyone rolls back to the checkpoint of cycle 3, which recovery must
	// rebuild from the checkpointed rows alone.
	for _, iters := range []int{8, 9} {
		dt, dr := fastDetect()
		res, err := Live(ftWorld(t, 4), core.Vector{5, 2, 6, 4}, STEN2, 17, iters, Options{
			Injector: faults.NewEngine(faults.Schedule{Crashes: []faults.Crash{{Rank: 1, Cycle: 5}}}, 1, nil),
			FT:       &FT{CheckpointEvery: 3, DetectTimeout: dt, DetectRetries: dr},
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Events) != 1 || res.Events[0].RollbackCycle != 3 {
			t.Errorf("%d cycles: recovery events %v, want one rollback to cycle 3", iters, res.Events)
		}
		gridsMatch(t, res.Grid, Sequential(NewGrid(17), iters))
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
