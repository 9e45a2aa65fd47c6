package stencil

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"netpart/internal/core"
	"netpart/internal/cost"
	"netpart/internal/faults"
	"netpart/internal/model"
	"netpart/internal/simnet"
)

// timeOnlyCase is one simulated problem run twice, computing grids and time
// only. opts builds fresh options for each run: an injector and a cycle log
// keep state.
type timeOnlyCase struct {
	name string
	cfg  cost.Config
	vec  core.Vector
	v    Variant
	opts func() Options
}

func timeOnlyCases(t *testing.T) []timeOnlyCase {
	t.Helper()
	net := model.PaperTestbed()
	none := func() Options { return Options{} }
	var cases []timeOnlyCase
	for _, n := range []int{60, 600} {
		for _, c := range [][2]int{{1, 0}, {2, 0}, {4, 0}, {6, 0}, {6, 2}, {6, 4}, {6, 6}} {
			cfg := paperConfig(c[0], c[1])
			vec, err := core.Decompose(net, cfg, n, model.OpFloat)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range []Variant{STEN1, STEN2} {
				cases = append(cases, timeOnlyCase{fmt.Sprintf("N=%d %d+%d", n, c[0], c[1]), cfg, vec, v, none})
			}
		}
	}
	rng := rand.New(rand.NewSource(2741))
	random := core.Vector{1, 1, 1, 1, 1, 1, 1}
	for left := 97 - len(random); left > 0; left-- {
		random[rng.Intn(len(random))]++
	}
	slow := func(rank, iter int) float64 {
		if rank == 3 && iter >= 2 {
			return 4
		}
		return 1
	}
	for _, v := range []Variant{STEN1, STEN2} {
		cases = append(cases,
			timeOnlyCase{fmt.Sprintf("random %v", random), paperConfig(6, 1), random, v, none},
			timeOnlyCase{"P=N", paperConfig(6, 6), core.Vector{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}, v, none},
			timeOnlyCase{"two-row ranks", paperConfig(5, 0), core.Vector{2, 5, 2, 6, 2}, v, none},
			timeOnlyCase{"rebalance", paperConfig(2, 2), core.Vector{40, 40, 40, 40}, v, func() Options {
				return Options{RebalanceEvery: 3, Slowdown: slow}
			}},
			timeOnlyCase{"injector", paperConfig(4, 2), core.Vector{30, 30, 30, 30, 20, 20}, v, func() Options {
				sched := faults.MustParse("slow:1,3@2-6;slow:4,2;drop:0.1;delay:0.2,3")
				return Options{Injector: faults.NewEngine(sched, 7, nil)}
			}},
			timeOnlyCase{"jitter", paperConfig(6, 2), core.Vector{25, 25, 25, 25, 25, 25, 25, 25}, v, func() Options {
				return Options{SimOptions: []simnet.Option{simnet.WithJitter(0.3, 42)}}
			}},
		)
	}
	return cases
}

// runBoth runs c computing grids and then time only, and reports every way
// the two differ in what a time-only run returns. Plans carry a wall-clock
// planning latency; their rendering omits it.
func runBoth(t *testing.T, c timeOnlyCase) {
	t.Helper()
	net := model.PaperTestbed()
	n := c.vec.Sum()
	const iters = 10
	fullOpts, timeOpts := c.opts(), c.opts()
	fullLog, timeLog := newCycleLog(), newCycleLog()
	fullOpts.Cycles, timeOpts.Cycles, timeOpts.TimeOnly = fullLog, timeLog, true
	full, err := Sim(net, c.cfg, c.vec, c.v, n, iters, fullOpts)
	if err != nil {
		t.Fatalf("%s %s: %v", c.name, c.v, err)
	}
	got, err := Sim(net, c.cfg, c.vec, c.v, n, iters, timeOpts)
	if err != nil {
		t.Fatalf("%s %s time-only: %v", c.name, c.v, err)
	}
	if got.Grid != nil {
		t.Errorf("%s %s: a time-only run returned a grid", c.name, c.v)
	}
	if got.ElapsedMs != full.ElapsedMs || !reflect.DeepEqual(got.Report, full.Report) ||
		fmt.Sprint(got.Plans) != fmt.Sprint(full.Plans) || !reflect.DeepEqual(got.FinalVector, full.FinalVector) ||
		got.Rebalances != full.Rebalances || got.MigratedRows != full.MigratedRows || got.Iterations != full.Iterations {
		t.Errorf("%s %s: time-only run differs: elapsed %v against %v ms, plans %v against %v",
			c.name, c.v, got.ElapsedMs, full.ElapsedMs, got.Plans, full.Plans)
	}
	if !reflect.DeepEqual(timeLog.cycle, fullLog.cycle) || !reflect.DeepEqual(timeLog.exchange, fullLog.exchange) {
		t.Errorf("%s %s: time-only cycle observations differ", c.name, c.v)
	}
	if c.name == "rebalance" && got.MigratedRows == 0 {
		t.Errorf("%s: the rebalance case migrated no rows", c.v)
	}
}

// TestTimeOnlyMatchesFullRun: a time-only run returns what a grid-computing
// run returns, bit for bit, apart from the grid: the Table 2 configurations
// at N = 60 and 600, a random vector, one row per rank, two-row ranks, a
// rebalance that migrates rows, injected slowdown and packet faults, and
// jittered channels.
func TestTimeOnlyMatchesFullRun(t *testing.T) {
	for _, c := range timeOnlyCases(t) {
		runBoth(t, c)
	}
}

// TestTimeOnlyIgnoresValues: blocks whose every cell is NaN give the same
// virtual times as zeroed ones. The pool is filled with NaN arrays large
// enough for any block of the cases and the collector held off, so that the
// time-only runs take them.
func TestTimeOnlyIgnoresValues(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for i := 0; i < 64; i++ {
		p := new([]float64)
		*p = make([]float64, 610*600)
		for j := range *p {
			(*p)[j] = math.NaN()
		}
		putBlock(p)
	}
	for _, c := range timeOnlyCases(t) {
		runBoth(t, c)
	}
}

// TestTimeOnlyRefusesTol: convergence reads values, so a time-only run
// cannot stop on a tolerance; the refusal names both options.
func TestTimeOnlyRefusesTol(t *testing.T) {
	_, err := Sim(model.PaperTestbed(), paperConfig(2, 0), core.Vector{5, 5}, STEN1, 10, 3,
		Options{TimeOnly: true, Tol: 1e-3})
	if err == nil || !strings.Contains(err.Error(), "TimeOnly") || !strings.Contains(err.Error(), "Tol") {
		t.Fatalf("TimeOnly with Tol returned %v, want a refusal naming both", err)
	}
}

// TestTimeOnlyAllocatesLessThanAGrid: once the pool holds the blocks of a
// first run, a time-only 6+6 run at N = 600 allocates only the simulator's
// own state, less than one N×N grid.
func TestTimeOnlyAllocatesLessThanAGrid(t *testing.T) {
	skipUnderRace(t)
	const n, iters = 600, 10
	net := model.PaperTestbed()
	cfg := paperConfig(6, 6)
	vec, err := core.Decompose(net, cfg, n, model.OpFloat)
	if err != nil {
		t.Fatal(err)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	opts := Options{TimeOnly: true}
	if _, err := Sim(net, cfg, vec, STEN1, n, iters, opts); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Sim(net, cfg, vec, STEN1, n, iters, opts); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	got, grid := after.TotalAlloc-before.TotalAlloc, uint64(8*n*n)
	if got >= grid {
		t.Errorf("warm time-only run (N=%d, 6+6) allocated %d bytes, want under one grid (%d)", n, got, grid)
	}
	t.Logf("warm time-only run: %d bytes, %.2f grids", got, float64(got)/float64(grid))
}
