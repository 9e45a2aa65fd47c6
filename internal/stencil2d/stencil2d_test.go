package stencil2d

import (
	"testing"

	"netpart/internal/commbench"
	"netpart/internal/core"
	"netpart/internal/cost"
	"netpart/internal/model"
	"netpart/internal/stencil"
	"netpart/internal/topo"
)

func paperConfig(p1, p2 int) cost.Config {
	return cost.Config{
		Clusters: []string{model.Sparc2Cluster, model.IPCCluster},
		Counts:   []int{p1, p2},
	}
}

func gridsEqual(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

func TestRunSimMatchesSequential(t *testing.T) {
	net := model.PaperTestbed()
	const n, iters = 24, 6
	want := stencil.Sequential(stencil.NewGrid(n), iters)
	for _, tc := range []struct {
		name   string
		cfg    cost.Config
		pr, pc int
	}{
		{"single", paperConfig(1, 0), 1, 1},
		{"line", paperConfig(2, 0), 1, 2},
		{"square", paperConfig(4, 0), 2, 2},
		{"rect", paperConfig(6, 0), 2, 3},
		{"full mesh", paperConfig(6, 6), 3, 4},
		{"prime", paperConfig(5, 0), 1, 5},
	} {
		res, err := RunSim(net, tc.cfg, n, iters)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.Rows != tc.pr || res.Cols != tc.pc {
			t.Errorf("%s: mesh %dx%d, want %dx%d", tc.name, res.Rows, res.Cols, tc.pr, tc.pc)
		}
		if !gridsEqual(res.Grid, want) {
			t.Errorf("%s: 2-D grid differs from sequential", tc.name)
		}
		if res.ElapsedMs <= 0 {
			t.Errorf("%s: elapsed %v", tc.name, res.ElapsedMs)
		}
	}
}

func TestRunSimValidates(t *testing.T) {
	net := model.PaperTestbed()
	if _, err := RunSim(net, paperConfig(0, 0), 10, 2); err == nil {
		t.Error("empty configuration accepted")
	}
	if _, err := RunSim(net, paperConfig(6, 6), 3, 2); err == nil {
		t.Error("grid smaller than mesh accepted")
	}
}

func TestAnnotationsSquareRootMessages(t *testing.T) {
	a := Annotations(600, 10)
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if a.NumPDUs() != 360000 {
		t.Errorf("NumPDUs = %d, want N²", a.NumPDUs())
	}
	// A task holding a 100×100 block sends ≈ 400-byte borders.
	if got := a.Comm[0].BytesPerMessage(10000); got != 400 {
		t.Errorf("BytesPerMessage(10000) = %v, want 400", got)
	}
	// Message size genuinely shrinks with more processors (smaller A).
	if a.Comm[0].BytesPerMessage(2500) >= a.Comm[0].BytesPerMessage(10000) {
		t.Error("message size should shrink with the assignment")
	}
}

func TestBorderBytesBelowOneD(t *testing.T) {
	// The motivation for the 2-D decomposition: on a 3×4 mesh each border
	// is ≈ n/3 or n/4 points versus the full n of the row decomposition.
	net := model.PaperTestbed()
	const n, iters = 48, 4
	res2d, err := RunSim(net, paperConfig(6, 6), n, iters)
	if err != nil {
		t.Fatal(err)
	}
	vec, err := core.Decompose(net, paperConfig(6, 6), n, model.OpFloat)
	if err != nil {
		t.Fatal(err)
	}
	res1d, err := stencil.Sim(net, paperConfig(6, 6), vec, stencil.STEN1, n, iters, stencil.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var b1, b2 int64
	for _, s := range res1d.Report.Segments {
		b1 += s.Bytes
	}
	for _, s := range res2d.Report.Segments {
		b2 += s.Bytes
	}
	if b2 >= b1 {
		t.Errorf("2-D moved %d bytes, 1-D %d; expected fewer", b2, b1)
	}
}

func TestCompareImplementations(t *testing.T) {
	net := model.PaperTestbed()
	bench, err := commbench.Run(net,
		[]topo.Topology{topo.OneD{}, topo.Mesh2D{}}, commbench.DefaultGrid())
	if err != nil {
		t.Fatal(err)
	}
	oneD, twoD, err := CompareImplementations(net, bench.Table, 600, 10)
	if err != nil {
		t.Fatal(err)
	}
	if oneD.Config.Total() < 1 || twoD.Config.Total() < 1 {
		t.Fatalf("degenerate choices: %v / %v", oneD.Config, twoD.Config)
	}
	if oneD.TcMs <= 0 || twoD.TcMs <= 0 {
		t.Fatalf("Tc: %v / %v", oneD.TcMs, twoD.TcMs)
	}
	t.Logf("implementation selection at N=600: 1-D %v Tc=%.2f; 2-D %v Tc=%.2f",
		oneD.Config, oneD.TcMs, twoD.Config, twoD.TcMs)
}
