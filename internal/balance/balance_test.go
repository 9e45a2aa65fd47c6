package balance

import (
	"math"
	"testing"
	"testing/quick"

	"netpart/internal/core"
	"netpart/internal/cost"
	"netpart/internal/model"
)

func paperConfig(p1, p2 int) cost.Config {
	return cost.Config{
		Clusters: []string{model.Sparc2Cluster, model.IPCCluster},
		Counts:   []int{p1, p2},
	}
}

func TestEqualVector(t *testing.T) {
	v, err := EqualVector(1200, 12)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range v {
		if a != 100 {
			t.Fatalf("equal split = %v", v)
		}
	}
	v, err = EqualVector(10, 3)
	if err != nil {
		t.Fatal(err)
	}
	if v[0] != 4 || v[1] != 3 || v[2] != 3 {
		t.Errorf("remainder split = %v", v)
	}
	if _, err := EqualVector(2, 3); err == nil {
		t.Error("too few PDUs accepted")
	}
	if _, err := EqualVector(5, 0); err == nil {
		t.Error("zero tasks accepted")
	}
}

func TestRebalanceShiftsTowardFasterTasks(t *testing.T) {
	current := core.Vector{50, 50}
	// Task 0 finished in 100 ms, task 1 took 300 ms: task 0 is 3x faster
	// per PDU, so it should end up with ~75 of the 100 PDUs.
	v, err := Rebalance(current, []float64{100, 300})
	if err != nil {
		t.Fatal(err)
	}
	if v.Sum() != 100 {
		t.Fatalf("sum = %d", v.Sum())
	}
	if v[0] != 75 || v[1] != 25 {
		t.Errorf("Rebalance = %v, want [75 25]", v)
	}
}

func TestRebalanceBalancedStaysPut(t *testing.T) {
	current := core.Vector{60, 30}
	// Times already equal: no change.
	v, err := Rebalance(current, []float64{200, 200})
	if err != nil {
		t.Fatal(err)
	}
	if v[0] != 60 || v[1] != 30 {
		t.Errorf("balanced rebalance moved PDUs: %v", v)
	}
}

func TestRebalanceValidation(t *testing.T) {
	if _, err := Rebalance(core.Vector{10}, []float64{1, 2}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := Rebalance(core.Vector{10, 10}, []float64{1, 0}); err == nil {
		t.Error("zero time accepted")
	}
}

// Property: Rebalance preserves the total and keeps all entries ≥ 1.
func TestRebalanceInvariantsProperty(t *testing.T) {
	f := func(counts []uint8, times []uint16) bool {
		n := len(counts)
		if n == 0 || n > 16 || len(times) < n {
			return true
		}
		cur := make(core.Vector, n)
		ms := make([]float64, n)
		for i := 0; i < n; i++ {
			cur[i] = int(counts[i]%50) + 1
			ms[i] = float64(times[i]%1000) + 1
		}
		v, err := Rebalance(cur, ms)
		if err != nil {
			return false
		}
		if v.Sum() != cur.Sum() {
			return false
		}
		for _, a := range v {
			if a < 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSimulateStaticBalanced(t *testing.T) {
	net := model.PaperTestbed()
	cfg := paperConfig(4, 0)
	init, err := EqualVector(120, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(WorkloadSpec{
		Net: net, Cfg: cfg, NumPDUs: 120,
		OpsPerPDU: 3000, Class: model.OpFloat,
		BorderBytes: 1200, BytesPerPDU: 4800,
		Cycles: 10, Initial: init,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ElapsedMs <= 0 {
		t.Fatal("no elapsed time")
	}
	if res.Rebalances != 0 || res.MigratedPDUs != 0 {
		t.Errorf("static run rebalanced: %+v", res)
	}
}

func TestDynamicBeatsStaticUnderLoadFluctuation(t *testing.T) {
	// Ablation A5: when one processor suddenly carries external load, the
	// dataparallel-C dynamic strategy recovers while the static partition
	// stays imbalanced.
	net := model.PaperTestbed()
	cfg := paperConfig(4, 0)
	init, err := EqualVector(200, 4)
	if err != nil {
		t.Fatal(err)
	}
	slowdown := func(rank, cycle int) float64 {
		if rank == 2 && cycle >= 5 {
			return 4.0 // a user logs into processor 2
		}
		return 1.0
	}
	base := WorkloadSpec{
		Net: net, Cfg: cfg, NumPDUs: 200,
		OpsPerPDU: 6000, Class: model.OpFloat,
		BorderBytes: 1200, BytesPerPDU: 2400,
		Cycles: 60, Slowdown: slowdown, Initial: init,
	}
	static, err := Simulate(base)
	if err != nil {
		t.Fatal(err)
	}
	dyn := base
	dyn.RebalanceEvery = 5
	dynamic, err := Simulate(dyn)
	if err != nil {
		t.Fatal(err)
	}
	if dynamic.ElapsedMs >= static.ElapsedMs {
		t.Errorf("dynamic %v ms not better than static %v ms under fluctuation",
			dynamic.ElapsedMs, static.ElapsedMs)
	}
	if dynamic.Rebalances == 0 {
		t.Error("dynamic run never rebalanced")
	}
	if dynamic.Final.Sum() != 200 {
		t.Errorf("final vector sums to %d", dynamic.Final.Sum())
	}
	// The loaded processor should hold fewer PDUs at the end.
	if dynamic.Final[2] >= dynamic.Final[0] {
		t.Errorf("loaded task still holds %d vs %d PDUs", dynamic.Final[2], dynamic.Final[0])
	}
}

func TestDynamicOverheadWithoutFluctuation(t *testing.T) {
	// With stable load the static partition wins (no migration overhead) —
	// the cost the paper's static method avoids when its assumption of
	// small load fluctuation holds.
	net := model.PaperTestbed()
	cfg := paperConfig(4, 0)
	init, _ := EqualVector(200, 4)
	base := WorkloadSpec{
		Net: net, Cfg: cfg, NumPDUs: 200,
		OpsPerPDU: 6000, Class: model.OpFloat,
		BorderBytes: 1200, BytesPerPDU: 2400,
		Cycles: 40, Initial: init,
	}
	static, err := Simulate(base)
	if err != nil {
		t.Fatal(err)
	}
	dyn := base
	dyn.RebalanceEvery = 5
	dynamic, err := Simulate(dyn)
	if err != nil {
		t.Fatal(err)
	}
	if static.ElapsedMs > dynamic.ElapsedMs {
		t.Errorf("static %v ms should not lose to dynamic %v ms under stable load",
			static.ElapsedMs, dynamic.ElapsedMs)
	}
}

func TestSimulateHeterogeneousDynamicConverges(t *testing.T) {
	// Start with an equal split on a heterogeneous configuration: dynamic
	// rebalancing should discover the 2:1 speed ratio by itself.
	net := model.PaperTestbed()
	cfg := paperConfig(2, 2)
	init, _ := EqualVector(120, 4)
	res, err := Simulate(WorkloadSpec{
		Net: net, Cfg: cfg, NumPDUs: 120,
		OpsPerPDU: 6000, Class: model.OpFloat,
		BorderBytes: 1200, BytesPerPDU: 2400,
		Cycles: 30, RebalanceEvery: 5, Initial: init,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Sparc2 tasks (ranks 0,1) should converge to ≈ 2x the PDUs of IPC
	// tasks (ranks 2,3).
	ratio := float64(res.Final[0]) / float64(res.Final[3])
	if math.Abs(ratio-2) > 0.35 {
		t.Errorf("dynamic split %v; sparc2/ipc ratio %v, want ≈ 2", res.Final, ratio)
	}
}

func TestSimulateValidatesInputs(t *testing.T) {
	net := model.PaperTestbed()
	cfg := paperConfig(2, 0)
	if _, err := Simulate(WorkloadSpec{Net: net, Cfg: cfg, NumPDUs: 10, Initial: core.Vector{5}, Cycles: 1}); err == nil {
		t.Error("vector/task mismatch accepted")
	}
	if _, err := Simulate(WorkloadSpec{Net: net, Cfg: cfg, NumPDUs: 10, Initial: core.Vector{3, 3}, Cycles: 1}); err == nil {
		t.Error("vector/PDU mismatch accepted")
	}
}
