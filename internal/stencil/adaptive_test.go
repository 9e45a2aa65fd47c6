package stencil

import (
	"math"
	"testing"

	"netpart/internal/core"
	"netpart/internal/model"
)

// TestAdaptiveNoRebalanceMatchesStatic: under stable load the rounds
// run, but no plan moves a row, the grid is the static run's, and the
// rounds' gather and broadcast cost time the static run does not pay:
// the overhead the paper's static method avoids when load fluctuates
// little.
func TestAdaptiveNoRebalanceMatchesStatic(t *testing.T) {
	net := model.PaperTestbed()
	cfg := paperConfig(4, 0)
	const n, iters = 200, 40
	vec, err := core.Decompose(net, cfg, n, model.OpFloat)
	if err != nil {
		t.Fatal(err)
	}
	static, err := Sim(net, cfg, vec, STEN1, n, iters, Options{})
	if err != nil {
		t.Fatal(err)
	}
	adaptive, err := Sim(net, cfg, vec, STEN1, n, iters, Options{RebalanceEvery: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(adaptive.Plans) == 0 {
		t.Fatal("no repartitioning round ran")
	}
	if adaptive.Rebalances != 0 || adaptive.MigratedRows != 0 {
		t.Errorf("stable load: %d plans applied, %d rows migrated, final %v",
			adaptive.Rebalances, adaptive.MigratedRows, adaptive.FinalVector)
	}
	if !gridsEqual(adaptive.Grid, static.Grid) {
		t.Error("adaptive grid differs from the static run's")
	}
	if adaptive.ElapsedMs < static.ElapsedMs {
		t.Errorf("adaptive %v ms beat static %v ms under stable load", adaptive.ElapsedMs, static.ElapsedMs)
	}
}

// TestAdaptiveEqualSplitFindsSpeedRatio: started from an equal split on
// 2+2, the rounds discover the 2:1 Sparc2/IPC speed ratio from measured
// times alone.
func TestAdaptiveEqualSplitFindsSpeedRatio(t *testing.T) {
	net := model.PaperTestbed()
	cfg := paperConfig(2, 2)
	const n, iters = 120, 30
	res, err := Sim(net, cfg, core.Vector{30, 30, 30, 30}, STEN1, n, iters, Options{RebalanceEvery: 5})
	if err != nil {
		t.Fatal(err)
	}
	f := res.FinalVector
	ratio := float64(f[0]+f[1]) / float64(f[2]+f[3])
	if math.Abs(ratio-2) > 0.35 {
		t.Errorf("final vector %v: Sparc2/IPC rows %.3f, want 2 ± 0.35", f, ratio)
	}
	if !gridsEqual(res.Grid, Sequential(NewGrid(n), iters)) {
		t.Error("adaptive grid differs from sequential")
	}
}

// TestAdaptiveMigratesAcrossTheRouter: with rank 5, the last Sparc2 of
// 6+5, slowed, its rows migrate to rank 6 across the router, and the
// next halo follows the row batch on the same stream. The run verifies.
func TestAdaptiveMigratesAcrossTheRouter(t *testing.T) {
	net := model.PaperTestbed()
	cfg := paperConfig(6, 5)
	const n, iters = 600, 12
	vec, err := core.Decompose(net, cfg, n, model.OpFloat)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Sim(net, cfg, vec, STEN1, n, iters, Options{
		RebalanceEvery: 4,
		Slowdown: func(rank, iter int) float64 {
			if rank == 5 && iter >= 3 {
				return 4
			}
			return 1
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MigratedRows == 0 || res.FinalVector[5] >= vec[5] {
		t.Errorf("slowed rank 5 kept its rows: %v -> %v", vec, res.FinalVector)
	}
	if !gridsEqual(res.Grid, Sequential(NewGrid(n), iters)) {
		t.Error("adaptive grid differs from sequential")
	}
}

func TestAdaptiveStaysExactUnderMigration(t *testing.T) {
	// Rebalancing must never change numerics, for both variants and for
	// heterogeneous configurations.
	net := model.PaperTestbed()
	const n, iters = 48, 12
	want := Sequential(NewGrid(n), iters)
	slowdown := func(rank, iter int) float64 {
		if rank == 1 && iter >= 3 {
			return 5
		}
		return 1
	}
	for _, v := range []Variant{STEN1, STEN2} {
		for _, cfg := range []struct{ p1, p2 int }{{4, 0}, {3, 3}} {
			c := paperConfig(cfg.p1, cfg.p2)
			vec, err := core.Decompose(net, c, n, model.OpFloat)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Sim(net, c, vec, v, n, iters, Options{
				RebalanceEvery: 3,
				Slowdown:       slowdown,
			})
			if err != nil {
				t.Fatalf("%s (%d,%d): %v", v, cfg.p1, cfg.p2, err)
			}
			if !gridsEqual(res.Grid, want) {
				t.Errorf("%s (%d,%d): adaptive grid differs from sequential", v, cfg.p1, cfg.p2)
			}
			if res.Rebalances == 0 || res.MigratedRows == 0 {
				t.Errorf("%s (%d,%d): no migration happened (%+v)", v, cfg.p1, cfg.p2, res)
			}
			if res.FinalVector.Sum() != n {
				t.Errorf("final vector sums to %d", res.FinalVector.Sum())
			}
		}
	}
}

func TestAdaptiveBeatsStaticUnderLoad(t *testing.T) {
	// The §7 future-work claim: dynamic recomputation of the partition
	// vector recovers from load imbalance that a static partition cannot.
	net := model.PaperTestbed()
	cfg := paperConfig(4, 0)
	const n, iters = 200, 40
	vec, err := core.Decompose(net, cfg, n, model.OpFloat)
	if err != nil {
		t.Fatal(err)
	}
	slowdown := func(rank, iter int) float64 {
		if rank == 2 && iter >= 5 {
			return 4
		}
		return 1
	}
	static, err := Sim(net, cfg, vec, STEN1, n, iters, Options{Slowdown: slowdown})
	if err != nil {
		t.Fatal(err)
	}
	adaptive, err := Sim(net, cfg, vec, STEN1, n, iters, Options{
		RebalanceEvery: 5,
		Slowdown:       slowdown,
	})
	if err != nil {
		t.Fatal(err)
	}
	if adaptive.ElapsedMs >= static.ElapsedMs {
		t.Errorf("adaptive %v ms not better than static %v ms under load", adaptive.ElapsedMs, static.ElapsedMs)
	}
	// The loaded rank should end with fewer rows.
	if adaptive.FinalVector[2] >= adaptive.FinalVector[0] {
		t.Errorf("loaded rank still holds %d vs %d rows", adaptive.FinalVector[2], adaptive.FinalVector[0])
	}
	// And numerics still exact.
	want := Sequential(NewGrid(n), iters)
	if !gridsEqual(adaptive.Grid, want) || !gridsEqual(static.Grid, want) {
		t.Error("load injection changed numerics")
	}
}
