package stencil

import (
	"strings"
	"testing"
	"time"

	"netpart/internal/core"
	"netpart/internal/faults"
	"netpart/internal/mmps"
	"netpart/internal/model"
	"netpart/internal/repart"
	"netpart/internal/simnet"
)

// alwaysFire is a repartitioning trigger that has always fired.
type alwaysFire struct{}

func (alwaysFire) Take() bool { return true }

// refusal is a run of iters iterations that every entry point in entries
// must refuse at the call, by an error that names each of want. "Live+FT"
// is Live with FT added, "Live/udp" Live over loopback UDP.
type refusal struct {
	entries []string
	tasks   int
	vec     core.Vector
	n       int
	iters   int
	opts    Options
	want    []string
}

var (
	allEntries  = []string{"Sim", "Live", "Live/udp", "Live+FT"}
	liveEntries = []string{"Live", "Live+FT"}
	// adaptiveEntries are the entry points that can rebalance.
	adaptiveEntries = []string{"Sim", "Live", "Live/udp"}
)

// checkRefusals runs every case on both variants and on every entry point
// it lists, and wants each refused quickly by a stencil error naming what
// is wrong.
func checkRefusals(t *testing.T, cases []refusal) {
	t.Helper()
	for _, tc := range cases {
		for _, entry := range tc.entries {
			for _, v := range []Variant{STEN1, STEN2} {
				start := time.Now()
				opts := tc.opts
				var err error
				switch entry {
				case "Sim":
					_, err = Sim(model.PaperTestbed(), paperConfig(tc.tasks, 0), tc.vec, v, tc.n, tc.iters, opts)
				default:
					var world []mmps.Transport
					if entry == "Live/udp" {
						world = udpWorld(t, tc.tasks)
					} else {
						world = localWorld(t, tc.tasks)
					}
					if entry == "Live+FT" {
						opts.FT = &FT{}
					}
					_, err = Live(world, tc.vec, v, tc.n, tc.iters, opts)
					closeWorld(world)
				}
				if err == nil {
					t.Errorf("%s %v N=%d %s: accepted", entry, tc.vec, tc.n, v)
					continue
				}
				msg := err.Error()
				if !strings.HasPrefix(msg, "stencil: ") {
					t.Errorf("%s %v N=%d %s: error %q is not the stencil package's", entry, tc.vec, tc.n, v, msg)
				}
				for _, want := range tc.want {
					if !strings.Contains(msg, want) {
						t.Errorf("%s %v N=%d %s: error %q does not name %q", entry, tc.vec, tc.n, v, msg, want)
					}
				}
				// World construction is included in the budget.
				if d := time.Since(start); d > 100*time.Millisecond {
					t.Errorf("%s %v N=%d %s: refusal took %v", entry, tc.vec, tc.n, v, d)
				}
			}
		}
	}
}

// TestZeroRowEntriesRejected: a rank without rows has no border to send, so
// its neighbours would wait on it until the transport timeout (and STEN-2
// would index past its block). Every entry point must refuse such a vector
// up front, quickly, naming the rank.
func TestZeroRowEntriesRejected(t *testing.T) {
	checkRefusals(t, []refusal{
		{allEntries, 2, core.Vector{0, 8}, 8, 3, Options{}, []string{"rank 0 is assigned 0 rows"}},
		{allEntries, 2, core.Vector{8, 0}, 8, 3, Options{}, []string{"rank 1 is assigned 0 rows"}},
		{allEntries, 3, core.Vector{4, 0, 4}, 8, 3, Options{}, []string{"rank 1 is assigned 0 rows"}},
		{allEntries, 2, core.Vector{9, -1}, 8, 3, Options{}, []string{"rank 1 is assigned -1 rows"}},
	})
}

// TestRunSimValidatesInputs: a vector that does not sum to N, or has more
// entries than the configuration has tasks, and a negative iteration count
// are refused.
func TestRunSimValidatesInputs(t *testing.T) {
	checkRefusals(t, []refusal{
		{allEntries, 2, core.Vector{6, 6}, 12, -1, Options{}, []string{"iters = -1"}},
		{allEntries, 2, core.Vector{5, 5}, 12, 3, Options{}, []string{"sums to 10", "N=12"}},
		{allEntries, 2, core.Vector{5, 5, 2}, 12, 3, Options{}, []string{"2 tasks for 3 vector entries"}},
	})
}

// TestAdaptiveValidatesInputs: the same refusals hold for a run that
// rebalances.
func TestAdaptiveValidatesInputs(t *testing.T) {
	checkRefusals(t, []refusal{
		{allEntries, 2, core.Vector{3, 3}, 10, 3, Options{}, []string{"sums to 6", "N=10"}},
		{allEntries, 2, core.Vector{3, 3, 4}, 10, 3, Options{}, []string{"2 tasks for 3 vector entries"}},
		{adaptiveEntries, 2, core.Vector{3, 3}, 10, 3, Options{RebalanceEvery: 2}, []string{"sums to 6", "N=10"}},
		{adaptiveEntries, 2, core.Vector{3, 3, 4}, 10, 3, Options{RebalanceEvery: 2}, []string{"2 tasks for 3 vector entries"}},
	})
}

// TestLiveAdaptiveValidates: a vector that does not fit the world or N,
// work factors that do not fit the tasks, and a negative iteration count
// are refused, rebalancing or not.
func TestLiveAdaptiveValidates(t *testing.T) {
	checkRefusals(t, []refusal{
		{adaptiveEntries, 2, core.Vector{4, 4}, 8, -3, Options{RebalanceEvery: 2}, []string{"iters = -3"}},
		{allEntries, 2, core.Vector{4}, 8, 3, Options{}, []string{"2 tasks for 1 vector entries"}},
		{allEntries, 2, core.Vector{4, 5}, 8, 3, Options{}, []string{"sums to 9", "N=8"}},
		{allEntries, 2, core.Vector{4, 4}, 8, 3, Options{WorkFactor: []int{1}}, []string{"1 work factors for 2 tasks"}},
		{adaptiveEntries, 2, core.Vector{4}, 8, 3, Options{RebalanceEvery: 2}, []string{"2 tasks for 1 vector entries"}},
		{adaptiveEntries, 2, core.Vector{4, 5}, 8, 3, Options{RebalanceEvery: 2}, []string{"sums to 9", "N=8"}},
		{adaptiveEntries, 2, core.Vector{4, 4}, 8, 3, Options{RebalanceEvery: 2, WorkFactor: []int{1}}, []string{"1 work factors for 2 tasks"}},
	})
}

// TestRefusals: an option field the runtime cannot honour is refused at the
// call by an error that names the field.
func TestRefusals(t *testing.T) {
	crash := faults.NewEngine(faults.Schedule{Crashes: []faults.Crash{{Rank: 1, Cycle: 2}}}, 1, nil)
	checkRefusals(t, []refusal{
		{liveEntries, 2, core.Vector{4, 4}, 8, 3, Options{TimeOnly: true}, []string{"Live cannot honour Options.TimeOnly"}},
		{liveEntries, 2, core.Vector{4, 4}, 8, 3, Options{SimOptions: []simnet.Option{simnet.WithJitter(0.1, 1)}}, []string{"Live cannot honour Options.SimOptions"}},
		{[]string{"Sim"}, 2, core.Vector{4, 4}, 8, 3, Options{FT: &FT{}}, []string{"Sim cannot honour Options.FT"}},
		{[]string{"Sim"}, 2, core.Vector{4, 4}, 8, 3, Options{TimeOnly: true, Tol: 1e-3}, []string{"Sim cannot honour Options.Tol", "TimeOnly"}},
		{[]string{"Sim", "Live"}, 2, core.Vector{4, 4}, 8, 3, Options{Injector: crash}, []string{"cannot honour Options.Injector", "crashes rank 1 at cycle 2", "FT"}},
		{[]string{"Live+FT"}, 2, core.Vector{4, 4}, 8, 3, Options{Tol: 1e-3}, []string{"Live cannot honour Options.Tol", "FT"}},
		{[]string{"Live+FT"}, 2, core.Vector{4, 4}, 8, 3, Options{RebalanceEvery: 2}, []string{"Live cannot honour Options.RebalanceEvery"}},
		{[]string{"Live+FT"}, 2, core.Vector{4, 4}, 8, 3, Options{Trigger: alwaysFire{}}, []string{"Live cannot honour Options.Trigger"}},
		{[]string{"Live+FT"}, 2, core.Vector{4, 4}, 8, 3, Options{Planner: repart.PlannerConfig{HorizonCycles: 4}}, []string{"Live cannot honour Options.Planner"}},
	})
}
