package repart

import (
	"strings"
	"sync"
	"testing"

	"netpart/internal/core"
	"netpart/internal/obs"
)

// vecEqual compares two vectors elementwise.
func vecEqual(a, b core.Vector) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestDriftTrigger(t *testing.T) {
	var tr DriftTrigger
	if tr.Take() {
		t.Error("fresh trigger armed")
	}
	tr.Fire()
	tr.Fire() // coalesces
	if !tr.Take() {
		t.Error("fired trigger not taken")
	}
	if tr.Take() {
		t.Error("take did not clear")
	}
	var nilTr *DriftTrigger
	nilTr.Fire() // must not panic
	if nilTr.Take() {
		t.Error("nil trigger armed")
	}
}

// TestEngineDecideExports: a decision lands in metrics and the trace.
func TestEngineDecideExports(t *testing.T) {
	reg := obs.NewRegistry()
	var sb strings.Builder
	rec := obs.NewRecorder(&sb)
	eng := &Engine{Planner: NewPlanner(PlannerConfig{}), Metrics: reg, Trace: rec}
	plan := eng.Decide(4, "drift", core.Vector{16, 16}, []float64{10, 30})
	if !plan.Changed() {
		t.Fatal("no plan under 3x imbalance")
	}
	if plan.PlanMs < 0 {
		t.Error("negative plan latency")
	}
	if got := reg.Counter(MetricPlans).Value(); got != 1 {
		t.Errorf("%s=%d", MetricPlans, got)
	}
	if got := reg.Counter(MetricMigratedRows).Value(); got != int64(plan.MovedRows) {
		t.Errorf("%s=%d want %d", MetricMigratedRows, got, plan.MovedRows)
	}
	if reg.Histogram(MetricPlanMs).N() != 1 {
		t.Errorf("%s not observed", MetricPlanMs)
	}
	if !strings.Contains(sb.String(), `"repart"`) {
		t.Errorf("no repart trace event in %q", sb.String())
	}
}

// TestEngineRound: the full gather → plan → broadcast exchange converges on
// the same (old, new) pair at every rank, and plan=false keeps.
func TestEngineRound(t *testing.T) {
	for _, doPlan := range []bool{true, false} {
		world := newTestWorld(t, 3)
		eng := &Engine{Planner: NewPlanner(PlannerConfig{})}
		vec := core.Vector{6, 6, 6}
		measured := []float64{6, 6, 24} // rank 2 slow
		plans := make([]Plan, 3)
		errs := make([]error, 3)
		var wg sync.WaitGroup
		for rank := 0; rank < 3; rank++ {
			rank := rank
			wg.Add(1)
			go func() {
				defer wg.Done()
				plans[rank], errs[rank] = eng.Round(world[rank], 9, "interval", vec[rank], measured[rank], doPlan)
			}()
		}
		wg.Wait()
		for rank, err := range errs {
			if err != nil {
				t.Fatalf("plan=%v rank %d: %v", doPlan, rank, err)
			}
		}
		for rank := 0; rank < 3; rank++ {
			if got, want := plans[rank].Old, plans[0].Old; !vecEqual(got, want) {
				t.Errorf("plan=%v rank %d old %v != %v", doPlan, rank, got, want)
			}
			if got, want := plans[rank].New, plans[0].New; !vecEqual(got, want) {
				t.Errorf("plan=%v rank %d new %v != %v", doPlan, rank, got, want)
			}
		}
		if doPlan && !plans[0].Changed() {
			t.Error("planning round kept a 4x-imbalanced vector")
		}
		if !doPlan && plans[0].Changed() {
			t.Error("keep round changed the vector")
		}
	}
}

// TestSurvivorsErrors: out-of-range ranks are rejected.
func TestSurvivorsErrors(t *testing.T) {
	policy := Survivors(nil, nil, nil, []string{"a", "b"})
	if _, err := policy([]int{5}); err == nil {
		t.Error("out-of-range survivor accepted")
	}
}
