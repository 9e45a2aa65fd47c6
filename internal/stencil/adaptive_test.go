package stencil

import (
	"testing"

	"netpart/internal/core"
	"netpart/internal/model"
)

func TestAdaptiveNoRebalanceMatchesStatic(t *testing.T) {
	net := model.PaperTestbed()
	cfg := paperConfig(4, 0)
	const n, iters = 32, 6
	vec, err := core.Decompose(net, cfg, n, model.OpFloat)
	if err != nil {
		t.Fatal(err)
	}
	static, err := Sim(net, cfg, vec, STEN1, n, iters, Options{})
	if err != nil {
		t.Fatal(err)
	}
	adaptive, err := Sim(net, cfg, vec, STEN1, n, iters, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if adaptive.Rebalances != 0 || adaptive.MigratedRows != 0 {
		t.Errorf("disabled rebalancing still rebalanced: %+v", adaptive)
	}
	if !gridsEqual(adaptive.Grid, static.Grid) {
		t.Error("adaptive (disabled) grid differs from static run")
	}
	if adaptive.ElapsedMs != static.ElapsedMs {
		t.Errorf("disabled adaptive elapsed %v vs static %v", adaptive.ElapsedMs, static.ElapsedMs)
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
