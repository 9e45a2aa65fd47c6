package balance

import (
	"testing"

	"netpart/internal/cost"
	"netpart/internal/model"
	"netpart/internal/stencil"
)

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

// TestDynamicOverheadWithoutFluctuation: with stable load the static
// equal split on four Sparc2s is no slower than the same start with
// dynamic rebalancing, which moves no row but pays for its rounds — the
// cost the paper's static method avoids when its assumption of small
// load fluctuation holds.
func TestDynamicOverheadWithoutFluctuation(t *testing.T) {
	net := model.PaperTestbed()
	cfg := cost.Config{
		Clusters: []string{model.Sparc2Cluster, model.IPCCluster},
		Counts:   []int{4, 0},
	}
	const n, iters = 200, 40
	init, err := EqualVector(n, 4)
	if err != nil {
		t.Fatal(err)
	}
	static, err := stencil.Sim(net, cfg, init, stencil.STEN1, n, iters, stencil.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dynamic, err := stencil.Sim(net, cfg, init, stencil.STEN1, n, iters, stencil.Options{RebalanceEvery: 5})
	if err != nil {
		t.Fatal(err)
	}
	if dynamic.MigratedRows != 0 {
		t.Errorf("stable load: %d rows migrated, final %v", dynamic.MigratedRows, dynamic.FinalVector)
	}
	if static.ElapsedMs > dynamic.ElapsedMs {
		t.Errorf("static %v ms should not lose to dynamic %v ms under stable load",
			static.ElapsedMs, dynamic.ElapsedMs)
	}
}
