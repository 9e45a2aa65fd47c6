package gauss

import (
	"errors"
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

func TestSequentialSolvesKnownSystem(t *testing.T) {
	// 2x + y = 5, x + 3y = 10 → x = 1, y = 3.
	s := System{
		A: [][]float64{{2, 1}, {1, 3}},
		B: []float64{5, 10},
	}
	x, err := Sequential(s)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-1) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Errorf("x = %v, want [1 3]", x)
	}
}

func TestSequentialRequiresPivoting(t *testing.T) {
	// A[0][0] = 0 forces a row swap.
	s := System{
		A: [][]float64{{0, 1}, {1, 0}},
		B: []float64{2, 3},
	}
	x, err := Sequential(s)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-3) > 1e-12 || math.Abs(x[1]-2) > 1e-12 {
		t.Errorf("x = %v, want [3 2]", x)
	}
}

func TestSequentialDetectsSingular(t *testing.T) {
	s := System{
		A: [][]float64{{1, 2}, {2, 4}},
		B: []float64{1, 2},
	}
	if _, err := Sequential(s); !errors.Is(err, ErrSingular) {
		t.Errorf("singular matrix: %v", err)
	}
}

func TestSequentialResidualSmall(t *testing.T) {
	s := NewSystem(50, 7)
	x, err := Sequential(s)
	if err != nil {
		t.Fatal(err)
	}
	if r := Residual(s, x); r > 1e-9 {
		t.Errorf("residual %v too large", r)
	}
}

func TestNewSystemDeterministic(t *testing.T) {
	a := NewSystem(10, 42)
	b := NewSystem(10, 42)
	for i := range a.A {
		for j := range a.A[i] {
			if a.A[i][j] != b.A[i][j] {
				t.Fatal("NewSystem not deterministic")
			}
		}
	}
	c := NewSystem(10, 43)
	if a.A[0][0] == c.A[0][0] && a.A[0][1] == c.A[0][1] {
		t.Error("different seeds produced identical matrices")
	}
}

func TestDistributedMatchesSequential(t *testing.T) {
	net := model.PaperTestbed()
	for _, tc := range []struct {
		name string
		cfg  cost.Config
		n    int
	}{
		{"single task", paperConfig(1, 0), 20},
		{"homogeneous", paperConfig(4, 0), 20},
		{"heterogeneous", paperConfig(6, 6), 36},
		{"uneven", paperConfig(3, 2), 17},
	} {
		s := NewSystem(tc.n, 11)
		want, err := Sequential(s)
		if err != nil {
			t.Fatal(err)
		}
		vec, err := core.Decompose(net, tc.cfg, tc.n, model.OpFloat)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		res, err := RunSim(net, tc.cfg, vec, s)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for i := range want {
			if res.X[i] != want[i] {
				t.Errorf("%s: x[%d] = %v, want %v (distributed must match sequential exactly)",
					tc.name, i, res.X[i], want[i])
				break
			}
		}
		if r := Residual(s, res.X); r > 1e-9 {
			t.Errorf("%s: residual %v", tc.name, r)
		}
		if res.ElapsedMs <= 0 {
			t.Errorf("%s: elapsed %v", tc.name, res.ElapsedMs)
		}
	}
}

func TestDistributedDetectsSingular(t *testing.T) {
	net := model.PaperTestbed()
	s := System{
		A: [][]float64{{1, 2, 3}, {2, 4, 6}, {1, 1, 1}},
		B: []float64{1, 2, 3},
	}
	cfg := paperConfig(3, 0)
	vec := core.Vector{1, 1, 1}
	if _, err := RunSim(net, cfg, vec, s); !errors.Is(err, ErrSingular) {
		t.Errorf("distributed singular detection: %v", err)
	}
}

func TestRunSimValidatesInputs(t *testing.T) {
	net := model.PaperTestbed()
	s := NewSystem(10, 1)
	if _, err := RunSim(net, paperConfig(2, 0), core.Vector{3, 3}, s); err == nil {
		t.Error("vector/N mismatch should error")
	}
	if _, err := RunSim(net, paperConfig(2, 0), core.Vector{3, 3, 4}, s); err == nil {
		t.Error("vector/config mismatch should error")
	}
}

func TestAnnotationsUseBroadcast(t *testing.T) {
	a := Annotations(100)
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if a.Comm[0].Topology != "broadcast" {
		t.Errorf("topology = %q", a.Comm[0].Topology)
	}
	if got := a.Comm[0].BytesPerMessage(0); got != 8*102 {
		t.Errorf("bytes = %v", got)
	}
	if a.Cycles != 100 {
		t.Errorf("cycles = %d", a.Cycles)
	}
}

func TestPartitionerPicksFewerProcsForBroadcast(t *testing.T) {
	// The bandwidth-limited broadcast topology cannot exploit extra
	// segments, so the partitioner should choose fewer processors for
	// elimination than for an equally sized stencil.
	net := model.PaperTestbed()
	tbl := cost.PaperTable()
	// Give the table broadcast models derived from the 1-D constants with
	// the root's fan-out (p-1 messages serialized through one channel).
	tbl.SetComm(model.Sparc2Cluster, "broadcast", cost.Params{C2: 1.1, C4: 0.00283})
	tbl.SetComm(model.IPCCluster, "broadcast", cost.Params{C2: 1.9, C4: 0.00457})
	e, err := core.NewEstimator(net, tbl, Annotations(300))
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Partition(e)
	if err != nil {
		t.Fatal(err)
	}
	if res.Config.Total() >= 12 {
		t.Errorf("broadcast app should not use the whole network: %v", res.Config)
	}
	if res.Config.Counts[0] < 1 {
		t.Errorf("no processors chosen: %v", res.Config)
	}
}

// Property: the distributed solver matches the sequential one for random
// diagonally dominant systems across decompositions.
func TestDistributedCorrectProperty(t *testing.T) {
	net := model.PaperTestbed()
	f := func(seed uint16, p1Raw, p2Raw uint8) bool {
		n := 12
		p1 := int(p1Raw%4) + 1
		p2 := int(p2Raw % 3)
		if p1+p2 > n {
			return true
		}
		s := NewSystem(n, uint64(seed)+1)
		want, err := Sequential(s)
		if err != nil {
			return false
		}
		cfg := paperConfig(p1, p2)
		vec, err := core.Decompose(net, cfg, n, model.OpFloat)
		if err != nil {
			return false
		}
		res, err := RunSim(net, cfg, vec, s)
		if err != nil {
			return false
		}
		for i := range want {
			if res.X[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestRunSimAssignedValidation(t *testing.T) {
	net := model.PaperTestbed()
	s := NewSystem(6, 1)
	cfg := paperConfig(2, 0)
	vec := core.Vector{3, 3}
	bad := [][]int{{0, 1, 2}, {3, 4}} // wrong count
	if _, err := RunSimAssigned(net, cfg, vec, bad, s); err == nil {
		t.Error("short assignment accepted")
	}
	dup := [][]int{{0, 1, 2}, {2, 4, 5}} // row 2 twice
	if _, err := RunSimAssigned(net, cfg, vec, dup, s); err == nil {
		t.Error("duplicate row accepted")
	}
	unsorted := [][]int{{2, 1, 0}, {3, 4, 5}}
	if _, err := RunSimAssigned(net, cfg, vec, unsorted, s); err == nil {
		t.Error("unsorted assignment accepted")
	}
}
