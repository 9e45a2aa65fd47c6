package repart

import (
	"testing"
	"testing/quick"

	"netpart/internal/core"
	"netpart/internal/cost"
)

// TestPlannerSheds: a rank measured slower per row ends up with fewer rows
// and the predicted bottleneck shrinks.
func TestPlannerSheds(t *testing.T) {
	p := NewPlanner(PlannerConfig{})
	cur := core.Vector{32, 32, 32, 32}
	// Rank 2 runs 3x slower per row.
	measured := []float64{32, 32, 96, 32}
	plan := p.Plan(7, "interval", cur, measured)
	if !plan.Changed() {
		t.Fatalf("kept %v under 3x imbalance", cur)
	}
	if plan.New.Sum() != cur.Sum() {
		t.Fatalf("sum changed: %v -> %v", cur, plan.New)
	}
	if plan.New[2] >= cur[2] {
		t.Errorf("slow rank kept %d rows (had %d)", plan.New[2], cur[2])
	}
	if plan.NewMaxMs >= plan.OldMaxMs {
		t.Errorf("bottleneck did not improve: %.3g -> %.3g", plan.OldMaxMs, plan.NewMaxMs)
	}
	if plan.MovedRows <= 0 || plan.Evaluations <= 0 {
		t.Errorf("moved=%d evals=%d", plan.MovedRows, plan.Evaluations)
	}
	if plan.Cycle != 7 || plan.Reason != "interval" {
		t.Errorf("metadata lost: %s", plan)
	}
}

// TestPlannerDeterministic: identical inputs render identical plans.
func TestPlannerDeterministic(t *testing.T) {
	p := NewPlanner(PlannerConfig{Mig: cost.Migration{PerMoveMs: 0.1, PerByteMs: 1e-6, RowBytes: 512}})
	cur := core.Vector{10, 20, 30, 40}
	measured := []float64{5, 11, 17, 50}
	want := p.Plan(3, "drift", cur, measured).String()
	for i := 0; i < 10; i++ {
		if got := p.Plan(3, "drift", cur, measured).String(); got != want {
			t.Fatalf("run %d: %q != %q", i, got, want)
		}
	}
}

// TestPlannerMigrationCostGates: pricing migration high enough makes the
// planner keep a mildly imbalanced vector that a free migration would fix.
func TestPlannerMigrationCostGates(t *testing.T) {
	cur := core.Vector{32, 32}
	measured := []float64{32, 40} // 25% imbalance
	free := NewPlanner(PlannerConfig{}).Plan(0, "interval", cur, measured)
	if !free.Changed() {
		t.Fatal("free migration kept the vector")
	}
	costly := NewPlanner(PlannerConfig{
		Mig:           cost.Migration{PerMoveMs: 1e6},
		HorizonCycles: 1,
	}).Plan(0, "interval", cur, measured)
	if costly.Changed() {
		t.Fatalf("moved %d rows despite prohibitive T_mig", costly.MovedRows)
	}
	if costly.Evaluations == 0 {
		t.Error("costly planner did not search at all")
	}
}

// TestPlannerDegenerateKeeps: bad measurements or vectors at the row floor
// keep the current vector.
func TestPlannerDegenerateKeeps(t *testing.T) {
	cur := core.Vector{8, 8}
	nan := 0.0
	nan /= nan
	cases := [][]float64{
		{0, 5},        // sub-resolution clock
		{-1, 5},       // negative
		{nan, 5},      // NaN
		{5},           // length mismatch
		{1e300, 1e18}, // finite but rank at floor below
	}
	for i, m := range cases {
		v := cur
		if i == 4 {
			v = core.Vector{1, 15} // rank 0 at the row floor
		}
		plan := NewPlanner(PlannerConfig{}).Plan(0, "interval", v, m)
		if plan.Changed() {
			t.Errorf("case %d: planned %v from degenerate input", i, plan.New)
		}
	}
	var nilP *Planner
	if nilP.Plan(0, "x", cur, []float64{1, 1}).Changed() {
		t.Error("nil planner planned")
	}
}

// Property: for arbitrary positive rates the plan preserves the row total,
// respects the row floor, and never predicts a worse bottleneck than the
// measured one.
func TestPlannerInvariants(t *testing.T) {
	p := NewPlanner(PlannerConfig{Mig: cost.Migration{PerMoveMs: 0.01, PerByteMs: 1e-7, RowBytes: 256}})
	f := func(raw []uint8, msRaw []uint16) bool {
		if len(raw) < 2 {
			return true
		}
		if len(raw) > 12 {
			raw = raw[:12]
		}
		cur := make(core.Vector, len(raw))
		measured := make([]float64, len(raw))
		for i := range raw {
			cur[i] = 1 + int(raw[i]%64)
			m := uint16(1)
			if i < len(msRaw) {
				m = msRaw[i]%500 + 1
			}
			measured[i] = float64(m)
		}
		plan := p.Plan(0, "interval", cur, measured)
		if plan.New.Sum() != cur.Sum() {
			return false
		}
		for _, c := range plan.New {
			if c < 1 {
				return false
			}
		}
		if plan.Changed() && plan.NewMaxMs > plan.OldMaxMs {
			return false
		}
		if MovedRows(plan.Old, plan.New) != plan.MovedRows {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestMigrationCostTerm pins the T_mig shape: affine in rows moved, zero
// for zero movement.
func TestMigrationCostTerm(t *testing.T) {
	m := cost.Migration{PerMoveMs: 2, PerByteMs: 0.001, RowBytes: 100}
	if got := m.Cost(0); got != 0 {
		t.Errorf("Cost(0)=%g", got)
	}
	if got := m.Cost(-3); got != 0 {
		t.Errorf("Cost(-3)=%g", got)
	}
	if got, want := m.Cost(10), 2+0.001*100*10; got != want {
		t.Errorf("Cost(10)=%g want %g", got, want)
	}
	fromParams := cost.MigrationFromParams(cost.Params{C1: 5, C3: 0.5}, 64)
	if fromParams.PerMoveMs != 5 || fromParams.PerByteMs != 0.5 || fromParams.RowBytes != 64 {
		t.Errorf("MigrationFromParams: %+v", fromParams)
	}
}

// TestPlannerMovesATiedPlateau: when two ranks share the maximum load, a
// shift that leaves the maximum where it is but lowers one of the two
// touched ranks' loads is the way down; the plan ends near the
// rate-proportional split (bottleneck L with Σ L/rate_r = total rows).
func TestPlannerMovesATiedPlateau(t *testing.T) {
	for _, c := range []struct {
		cur   core.Vector
		rates []float64
	}{
		{core.Vector{30, 30, 30, 30}, []float64{1, 1, 2, 2}},
		{core.Vector{100, 100, 100, 100}, []float64{1, 1, 4, 1}},
		{core.Vector{32, 32, 32, 32}, []float64{1, 1, 3, 1}},
	} {
		measured := make([]float64, len(c.cur))
		inverse := 0.0
		for i, r := range c.rates {
			measured[i] = r * float64(c.cur[i])
			inverse += 1 / r
		}
		proportional := float64(c.cur.Sum()) / inverse
		plan := NewPlanner(PlannerConfig{}).Plan(0, "interval", c.cur, measured)
		if plan.New.Sum() != c.cur.Sum() {
			t.Fatalf("%v: sum changed to %v", c.cur, plan.New)
		}
		if plan.NewMaxMs > 1.06*proportional {
			t.Errorf("%v at rates %v: planned %v, bottleneck %.4g ms; the proportional split's is %.4g",
				c.cur, c.rates, plan.New, plan.NewMaxMs, proportional)
		}
	}
}
