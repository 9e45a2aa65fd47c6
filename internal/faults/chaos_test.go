// Chaos suite: the paper's STEN-1/STEN-2 testbed runs under every fault
// class the schedule grammar can express, and every run must converge to
// the bit-for-bit sequential result. Packet faults ride below the
// transport's reliability layer (drops retransmit, delays arrive late,
// duplicates dedup), crash faults exercise the full detect → agree →
// re-partition → rollback pipeline, and the partition case checks that a
// healed network cut shorter than the detection budget causes no
// split-brain. Seeded via CHAOS_SEED (default 1) so CI can sweep seeds
// while any single run stays reproducible.
package faults_test

import (
	"os"
	"strconv"
	"testing"
	"time"

	"netpart/internal/core"
	"netpart/internal/cost"
	"netpart/internal/faults"
	"netpart/internal/mmps"
	"netpart/internal/model"
	"netpart/internal/obs/drift"
	"netpart/internal/repart"
	"netpart/internal/stencil"
)

// chaosSeed reads CHAOS_SEED so CI can run the same table under several
// seeds; any fixed seed gives a fully deterministic fault sequence.
func chaosSeed(t *testing.T) uint64 {
	t.Helper()
	s := os.Getenv("CHAOS_SEED")
	if s == "" {
		return 1
	}
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		t.Fatalf("CHAOS_SEED=%q: %v", s, err)
	}
	return v
}

// paperSetup derives the 12-rank paper-testbed partition vector and the
// rank → cluster placement (6 Sparc2 + 6 IPC).
func paperSetup(t *testing.T, n int) (*model.Network, core.Vector, []string) {
	t.Helper()
	net := model.PaperTestbed()
	cfg := cost.Config{
		Clusters: []string{model.Sparc2Cluster, model.IPCCluster},
		Counts:   []int{6, 6},
	}
	vec, err := core.Decompose(net, cfg, n, model.OpFloat)
	if err != nil {
		t.Fatal(err)
	}
	placement := make([]string, 0, 12)
	for i := 0; i < 6; i++ {
		placement = append(placement, model.Sparc2Cluster)
	}
	for i := 0; i < 6; i++ {
		placement = append(placement, model.IPCCluster)
	}
	return net, vec, placement
}

// chaosWorld builds a 12-endpoint in-process world with every packet
// routed through the injector.
func chaosWorld(t *testing.T, n int, inj faults.Injector) []mmps.Transport {
	t.Helper()
	locals, err := mmps.NewLocalWorld(n, mmps.WithInjector(inj))
	if err != nil {
		t.Fatal(err)
	}
	world := make([]mmps.Transport, n)
	for i, l := range locals {
		world[i] = l
	}
	t.Cleanup(func() {
		for _, l := range locals {
			l.Close()
		}
	})
	return world
}

func requireGridsEqual(t *testing.T, got, want [][]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("grid of %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("grid[%d][%d] = %v, want %v (must be bit-for-bit)", i, j, got[i][j], want[i][j])
			}
		}
	}
}

// TestChaosMatrix runs both paper stencils under one fault class at a
// time. Crash is the only class allowed to trigger recovery; every other
// class must be absorbed by the transport (or, for the short partition,
// outlasted by the detection budget) with zero recoveries — a recovery
// there would mean a live rank was wrongly excommunicated.
func TestChaosMatrix(t *testing.T) {
	const n, iters, ckptEvery = 96, 30, 8
	const crashRank = 3
	seed := chaosSeed(t)

	cases := []struct {
		name     string
		schedule string
		crashes  bool
	}{
		// One node dies at cycle 12: detect, re-partition over 11, roll
		// back to the cycle-8 checkpoint, finish.
		{"crash", "crash:3@12", true},
		// Steady 8% packet loss: every drop costs a retransmission
		// round-trip but the reliability layer hides it.
		{"drop", "drop:0.08", false},
		// A quarter of packets arrive 3ms late; ordering is preserved by
		// the per-stream sequencing.
		{"delay", "delay:0.25,3", false},
		// Duplicated packets must be suppressed exactly once.
		{"dup", "dup:0.25", false},
		// Rank 2 computes 4× slower for cycles 5–20; neighbors block on
		// its borders but its keepalives prevent a false verdict.
		{"slowdown", "slow:2,4@5-20", false},
		// The network splits between the Sparc2 and IPC clusters for
		// 100ms, shorter than the 180ms detection budget, then heals;
		// retransmissions drain the cut with no split-brain. The window
		// opens at 0ms — a fault-free run can finish in under 5ms, so any
		// later start would let fast runs skip the cut entirely.
		{"partition-heal", "part:6@0-100", false},
	}
	variants := []struct {
		name string
		v    stencil.Variant
	}{{"STEN1", stencil.STEN1}, {"STEN2", stencil.STEN2}}

	net, vec, placement := paperSetup(t, n)
	want := stencil.Sequential(stencil.NewGrid(n), iters)

	for _, vt := range variants {
		vt := vt
		for _, tc := range cases {
			tc := tc
			t.Run(vt.name+"/"+tc.name, func(t *testing.T) {
				t.Parallel()
				sched := faults.MustParse(tc.schedule).Sanitize(12, iters)
				eng := faults.NewEngine(sched, seed, nil)
				world := chaosWorld(t, 12, eng)
				res, err := stencil.Live(world, vec, vt.v, n, iters, stencil.Options{
					Injector: eng,
					FT: &stencil.FT{
						Repartition:     stencil.Repartitioner(net, cost.PaperTable(), vt.v, n, iters, placement),
						CheckpointEvery: ckptEvery,
						DetectTimeout:   60 * time.Millisecond,
						DetectRetries:   2,
					},
				})
				if err != nil {
					t.Fatalf("Live with FT under %q: %v", tc.schedule, err)
				}
				if tc.crashes {
					if len(res.Events) < 1 {
						t.Fatalf("recoveries = %d, want at least 1", len(res.Events))
					}
					if len(res.Failed) != 1 || res.Failed[0] != crashRank {
						t.Fatalf("failed = %v, want [%d]", res.Failed, crashRank)
					}
					if res.FinalVector[crashRank] != 0 {
						t.Fatalf("dead rank still owns rows: %v", res.FinalVector)
					}
					if res.FinalVector.Sum() != n {
						t.Fatalf("final vector sums to %d, want %d", res.FinalVector.Sum(), n)
					}
				} else {
					if len(res.Events) != 0 || len(res.Failed) != 0 {
						t.Fatalf("fault class %q triggered recovery (recoveries=%d failed=%v): live rank wrongly excommunicated",
							tc.name, len(res.Events), res.Failed)
					}
				}
				requireGridsEqual(t, res.Grid, want)
			})
		}
	}
}

// TestChaosCrashDeterminism: the same seed replays the identical recovery
// decision sequence — same rollback cycle, same re-partition vector, same
// bit-for-bit grid.
func TestChaosCrashDeterminism(t *testing.T) {
	const n, iters = 96, 30
	seed := chaosSeed(t)
	net, vec, placement := paperSetup(t, n)
	want := stencil.Sequential(stencil.NewGrid(n), iters)

	run := func() stencil.Result {
		sched := faults.MustParse("crash:3@12").Sanitize(12, iters)
		eng := faults.NewEngine(sched, seed, nil)
		world := chaosWorld(t, 12, eng)
		res, err := stencil.Live(world, vec, stencil.STEN2, n, iters, stencil.Options{
			Injector: eng,
			FT: &stencil.FT{
				Repartition:     stencil.Repartitioner(net, cost.PaperTable(), stencil.STEN2, n, iters, placement),
				CheckpointEvery: 8,
				DetectTimeout:   60 * time.Millisecond,
				DetectRetries:   2,
			},
		})
		if err != nil {
			t.Fatalf("Live with FT: %v", err)
		}
		return res
	}

	a, b := run(), run()
	if len(a.Events) == 0 || len(b.Events) == 0 {
		t.Fatalf("runs recorded %d and %d recovery events, want ≥1 each", len(a.Events), len(b.Events))
	}
	if a.Events[0].RollbackCycle != b.Events[0].RollbackCycle {
		t.Fatalf("rollback cycles differ: %d vs %d", a.Events[0].RollbackCycle, b.Events[0].RollbackCycle)
	}
	for r := range a.FinalVector {
		if a.FinalVector[r] != b.FinalVector[r] {
			t.Fatalf("final vectors differ: %v vs %v", a.FinalVector, b.FinalVector)
		}
	}
	requireGridsEqual(t, a.Grid, want)
	requireGridsEqual(t, b.Grid, want)
}

// TestChaosCrashMidMigration: a second rank dies while the first failure's
// recovery — re-partition and row migration — is still in flight. The
// barrier restart machinery must absorb the overlapping deadset, roll back
// to a cycle every survivor can serve (regenerating from the initial grid
// if the replicas died with their holders), and still converge on the
// bit-for-bit sequential result with a consistent final vector.
func TestChaosCrashMidMigration(t *testing.T) {
	const n, iters = 96, 30
	seed := chaosSeed(t)
	_, vec, _ := paperSetup(t, n)
	want := stencil.Sequential(stencil.NewGrid(n), iters)

	// The second crash hits rank 1 two cycles after the first, landing
	// inside or right around the first recovery's migration. The default
	// even-split repartition keeps every survivor owning rows (the paper
	// policy would concentrate all 96 rows on ranks 0-2, retiring the rest
	// and starving the second failure detection of its quorum). Sanitize
	// caps schedules at a single crash for fuzzed inputs, so this
	// hand-built double-crash schedule is used as parsed.
	sched := faults.MustParse("crash:3@12;crash:1@14")
	eng := faults.NewEngine(sched, seed, nil)
	world := chaosWorld(t, 12, eng)
	res, err := stencil.Live(world, vec, stencil.STEN2, n, iters, stencil.Options{
		Injector: eng,
		FT: &stencil.FT{
			CheckpointEvery: 8,
			DetectTimeout:   60 * time.Millisecond,
			DetectRetries:   2,
		},
	})
	if err != nil {
		t.Fatalf("Live with FT under double crash: %v", err)
	}
	if len(res.Events) < 1 {
		t.Fatalf("recoveries = %d, want at least 1", len(res.Events))
	}
	if len(res.Failed) != 2 {
		t.Fatalf("failed = %v, want both crashed ranks", res.Failed)
	}
	for _, dead := range []int{3, 1} {
		if res.FinalVector[dead] != 0 {
			t.Fatalf("dead rank %d still owns rows: %v", dead, res.FinalVector)
		}
	}
	if res.FinalVector.Sum() != n {
		t.Fatalf("final vector sums to %d, want %d", res.FinalVector.Sum(), n)
	}
	requireGridsEqual(t, res.Grid, want)
}

// TestChaosDriftTriggeredAdaptive: the trigger → plan → migrate pipeline
// under packet chaos. A drift monitor with a deliberately tiny cycle
// prediction fires on the first observed cycle, latching the repart
// trigger; the loaded rank then sheds rows through the engine while drops,
// duplicates, and delays churn below the transport. The grid must stay
// bit-exact whatever the decision sequence.
func TestChaosDriftTriggeredAdaptive(t *testing.T) {
	const n, iters = 96, 24
	seed := chaosSeed(t)
	_, vec, _ := paperSetup(t, n)
	want := stencil.Sequential(stencil.NewGrid(n), iters)

	eng := faults.NewEngine(faults.MustParse("drop:0.05;dup:0.1;delay:0.1,1").Sanitize(12, iters), seed, nil)
	world := chaosWorld(t, 12, eng)
	trig := &repart.DriftTrigger{}
	mon := drift.New(drift.Config{
		PredCycleMs:  1e-6, // any real cycle is "drift": fires immediately
		ThresholdPct: 1,
		Warmup:       1,
		Notify:       func(drift.Event) { trig.Fire() },
	}, nil, nil)
	work := make([]int, 12)
	for i := range work {
		work[i] = 1
	}
	work[5] = 8 // rank 5 carries external load
	res, err := stencil.Live(world, vec, stencil.STEN1, n, iters, stencil.Options{
		Trigger:    trig,
		WorkFactor: work,
		Cycles:     mon,
	})
	if err != nil {
		t.Fatalf("Live under packet chaos: %v", err)
	}
	if len(res.Plans) == 0 {
		t.Fatal("no repart rounds despite the drift trigger")
	}
	if res.Plans[0].Reason != "drift" || res.Plans[0].Evaluations == 0 {
		t.Fatalf("first round did not plan on drift: %s", res.Plans[0])
	}
	if res.FinalVector.Sum() != n {
		t.Fatalf("final vector sums to %d, want %d", res.FinalVector.Sum(), n)
	}
	requireGridsEqual(t, res.Grid, want)
}
