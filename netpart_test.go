package netpart_test

import (
	"bytes"
	"strings"
	"testing"

	"netpart"
)

// TestFacadeEndToEnd drives the whole public API the way the README's
// quick start does: model → benchmark → partition → execute → verify.
func TestFacadeEndToEnd(t *testing.T) {
	net := netpart.PaperTestbed()
	if err := net.Validate(); err != nil {
		t.Fatal(err)
	}
	costs, err := netpart.BenchmarkCosts(net)
	if err != nil {
		t.Fatal(err)
	}
	const n, iters = 300, 10
	ann := netpart.StencilAnnotations(n, netpart.STEN2, iters)
	res, err := netpart.Partition(net, costs, ann)
	if err != nil {
		t.Fatal(err)
	}
	if res.Config.Total() < 1 || res.Vector.Sum() != n {
		t.Fatalf("partition result %v / %v", res.Config, res.Vector)
	}
	run, err := netpart.RunStencilSim(net, res.Config, res.Vector, netpart.STEN2, n, iters, netpart.StencilOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := netpart.SequentialStencil(netpart.NewStencilGrid(n), iters)
	for i := range want {
		for j := range want[i] {
			if run.Grid[i][j] != want[i][j] {
				t.Fatalf("grid mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestFacadeGlobalSearchAndMetasystem(t *testing.T) {
	net := netpart.PaperTestbed()
	costs := netpart.PaperCostTable()
	ann := netpart.StencilAnnotations(300, netpart.STEN2, 10)
	heur, err := netpart.Partition(net, costs, ann)
	if err != nil {
		t.Fatal(err)
	}
	global, err := netpart.PartitionGlobal(net, costs, ann)
	if err != nil {
		t.Fatal(err)
	}
	if global.TcMs > heur.TcMs {
		t.Errorf("global %v worse than heuristic %v", global.TcMs, heur.TcMs)
	}
	meta := netpart.MetasystemTestbed()
	if err := meta.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeCostTablePersistence(t *testing.T) {
	orig := netpart.PaperCostTable()
	var buf bytes.Buffer
	if err := netpart.SaveCostTable(&buf, orig); err != nil {
		t.Fatal(err)
	}
	loaded, err := netpart.LoadCostTable(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a, err1 := orig.Comm("sparc2", "1-D")
	b, err2 := loaded.Comm("sparc2", "1-D")
	if err1 != nil || err2 != nil || a != b {
		t.Errorf("table did not round trip: %+v vs %+v", a, b)
	}
}

func TestFacadeCompileAnnotations(t *testing.T) {
	spec := `{
	  "name": "demo", "params": {"N": 64}, "num_pdus": "N", "cycles": 5,
	  "compute": [{"name": "work", "complexity_per_pdu": "5*N"}],
	  "comm": [{"name": "xchg", "topology": "1-D", "bytes_per_message": "4*N"}]
	}`
	ann, err := netpart.CompileAnnotations(strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	res, err := netpart.Partition(netpart.PaperTestbed(), netpart.PaperCostTable(), ann)
	if err != nil {
		t.Fatal(err)
	}
	if res.Config.Total() < 1 {
		t.Errorf("no processors chosen: %v", res.Config)
	}
}

func TestFacadeAdaptiveStencil(t *testing.T) {
	net := netpart.PaperTestbed()
	cfg := netpart.Config{Clusters: []string{"sparc2", "ipc"}, Counts: []int{3, 0}}
	vec, err := netpart.Decompose(net, cfg, 60, netpart.OpFloat)
	if err != nil {
		t.Fatal(err)
	}
	res, err := netpart.RunStencilSim(net, cfg, vec, netpart.STEN1, 60, 12,
		netpart.StencilOptions{
			RebalanceEvery: 4,
			Slowdown: func(rank, iter int) float64 {
				if rank == 0 && iter > 2 {
					return 3
				}
				return 1
			},
		})
	if err != nil {
		t.Fatal(err)
	}
	want := netpart.SequentialStencil(netpart.NewStencilGrid(60), 12)
	for i := range want {
		for j := range want[i] {
			if res.Grid[i][j] != want[i][j] {
				t.Fatalf("adaptive grid mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestFacadeTransports(t *testing.T) {
	for _, mk := range []func(int) ([]netpart.Transport, error){
		func(n int) ([]netpart.Transport, error) { return netpart.NewLocalWorld(n) },
		func(n int) ([]netpart.Transport, error) { return netpart.NewUDPWorld(n) },
	} {
		world, err := mk(2)
		if err != nil {
			t.Fatal(err)
		}
		if err := world[0].Send(1, []byte("ping")); err != nil {
			t.Fatal(err)
		}
		got, err := world[1].Recv(0)
		if err != nil || string(got) != "ping" {
			t.Errorf("round trip: %q, %v", got, err)
		}
		for _, tr := range world {
			tr.Close()
		}
	}
}

func TestFacadeClusterManager(t *testing.T) {
	net := netpart.PaperTestbed()
	m := netpart.NewClusterManager(net.Cluster("sparc2"))
	if err := m.SetLoad(0, 5); err != nil {
		t.Fatal(err)
	}
	if got := m.Refresh(); got != 5 {
		t.Errorf("available = %d, want 5", got)
	}
	if net.Cluster("sparc2").Available != 5 {
		t.Error("cluster not updated")
	}
}

// TestFacadeFaultTolerance drives the fault-injection and recovery surface:
// parse a schedule, build the deterministic engine, run the fault-tolerant
// live stencil through a crash, and verify the recovered result.
func TestFacadeFaultTolerance(t *testing.T) {
	sched, err := netpart.ParseFaultSchedule("crash:1@5;dup:0.1")
	if err != nil {
		t.Fatal(err)
	}
	eng := netpart.NewFaultEngine(sched.Sanitize(4, 12), 1, netpart.NewMetrics())
	world, err := netpart.NewLocalWorld(4, netpart.WithFaultInjector(eng))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, tr := range world {
			tr.Close()
		}
	}()
	const n, iters = 24, 12
	res, err := netpart.RunStencilLive(world, netpart.Vector{6, 6, 6, 6}, netpart.STEN1, n, iters,
		netpart.StencilOptions{Injector: eng, FT: &netpart.StencilFT{CheckpointEvery: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Events) != 1 || len(res.Failed) != 1 {
		t.Fatalf("recoveries = %d, failed = %v, want one crash survived", len(res.Events), res.Failed)
	}
	want := netpart.SequentialStencil(netpart.NewStencilGrid(n), iters)
	for i := range want {
		for j := range want[i] {
			if res.Grid[i][j] != want[i][j] {
				t.Fatalf("grid[%d][%d] = %v, want %v", i, j, res.Grid[i][j], want[i][j])
			}
		}
	}

	// Simulated counterpart: packet faults stretch time, not results.
	net := netpart.PaperTestbed()
	cfg := netpart.Config{Clusters: []string{"sparc2"}, Counts: []int{4}}
	vec, err := netpart.Decompose(net, cfg, n, netpart.OpFloat)
	if err != nil {
		t.Fatal(err)
	}
	lossy := netpart.NewFaultEngine(netpart.FaultSchedule{
		Drops: []netpart.FaultDrop{{Prob: 0.1, ToMs: 1e18}},
	}, 7, nil)
	sim, err := netpart.RunStencilSim(net, cfg, vec, netpart.STEN1, n, iters,
		netpart.StencilOptions{Injector: lossy, RetransmitMs: 10})
	if err != nil {
		t.Fatal(err)
	}
	clean, err := netpart.RunStencilSim(net, cfg, vec, netpart.STEN1, n, iters, netpart.StencilOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sim.ElapsedMs <= clean.ElapsedMs {
		t.Errorf("lossy sim %.1f ms not slower than clean %.1f ms", sim.ElapsedMs, clean.ElapsedMs)
	}
	for i := range clean.Grid {
		for j := range clean.Grid[i] {
			if sim.Grid[i][j] != clean.Grid[i][j] {
				t.Fatalf("faulty sim diverged at (%d,%d)", i, j)
			}
		}
	}
}

func TestFacadeRepartPlanner(t *testing.T) {
	mig := netpart.MigrationCostFromParams(netpart.CostParams{C1: 0, C3: -0.0055}, 8*64)
	if mig.PerByteMs <= 0 {
		t.Fatalf("negative fit not rectified: %+v", mig)
	}
	p := netpart.NewRepartPlanner(netpart.RepartPlannerConfig{Mig: mig, HorizonCycles: 8})
	plan := p.Plan(3, "drift", netpart.Vector{32, 32}, []float64{10, 40})
	if !plan.Changed() {
		t.Fatal("planner kept a 4x-imbalanced vector")
	}
	if plan.New.Sum() != 64 {
		t.Fatalf("row total changed: %v", plan.New)
	}
	var trig netpart.RepartDriftTrigger
	trig.Fire()
	if !trig.Take() || trig.Take() {
		t.Fatal("drift trigger latch misbehaved")
	}
}
