package experiments

import (
	"strings"
	"testing"

	"netpart/internal/core"
	"netpart/internal/cost"
	"netpart/internal/model"
	"netpart/internal/parallel"
	"netpart/internal/repart"
	"netpart/internal/stencil"
)

// TestAdaptivePlanGolden is the repartitioning engine's determinism
// guarantee: stencil.Sim with RebalanceEvery under a fixed slowdown
// schedule produces a byte-identical sequence of repart plans — rendered
// through Plan.String, which excludes wall-clock fields — across repeated
// runs and at any worker-pool width, and every run's grid stays bit-exact
// with the sequential kernel. The simulator runs in virtual time, the
// planner is a pure function, and rank 0 alone decides, so scheduling
// cannot leak into the decision stream.
func TestAdaptivePlanGolden(t *testing.T) {
	e := env(t)
	const n, iters = 256, 24
	cfg := PaperConfig(4, 0)
	vec, err := core.Decompose(e.Net, cfg, n, model.OpFloat)
	if err != nil {
		t.Fatal(err)
	}
	// A shifting hotspot: the loaded processor changes every 6 iterations,
	// so successive plans move rows in both directions.
	slowdown := func(rank, iter int) float64 {
		if rank == (iter/6)%4 {
			return 3
		}
		return 1
	}
	want := stencil.Sequential(stencil.NewGrid(n), iters)
	run := func() string {
		res, err := stencil.Sim(e.Net, cfg, vec, stencil.STEN1, n, iters,
			stencil.Options{
				RebalanceEvery: 4,
				Slowdown:       slowdown,
				Planner: repart.PlannerConfig{
					Mig:           cost.Migration{PerMoveMs: 0.05, PerByteMs: 1e-6, RowBytes: float64(stencil.BytesPerPoint * n)},
					HorizonCycles: 8,
				},
			})
		if err != nil {
			t.Error(err)
			return ""
		}
		if !gridsMatch(res.Grid, want) {
			t.Error("adaptive grid diverged from the sequential kernel")
		}
		lines := make([]string, len(res.Plans))
		for i, p := range res.Plans {
			lines[i] = p.String()
		}
		return strings.Join(lines, "\n")
	}

	golden := run()
	if golden == "" {
		t.Fatal("no plan transcript")
	}
	if !strings.Contains(golden, "moved=") || strings.Count(golden, "\n") < 3 {
		t.Fatalf("suspiciously small transcript:\n%s", golden)
	}
	changed := false
	for _, line := range strings.Split(golden, "\n") {
		if !strings.Contains(line, "moved=0") {
			changed = true
		}
	}
	if !changed {
		t.Fatalf("schedule produced no actual migration:\n%s", golden)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		const replicas = 4
		outs := make([]string, replicas)
		if err := parallel.For(workers, replicas, func(i int) error {
			outs[i] = run()
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i, got := range outs {
			if got != golden {
				t.Fatalf("workers=%d replica %d diverged:\n--- golden ---\n%s\n--- got ---\n%s",
					workers, i, golden, got)
			}
		}
	}
}
