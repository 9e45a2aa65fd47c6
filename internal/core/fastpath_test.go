package core

import (
	"fmt"
	"runtime/debug"
	"slices"
	"sync"
	"testing"

	"netpart/internal/cost"
	"netpart/internal/model"
	"netpart/internal/topo"
)

// TestEstimateNilObserverZeroAllocs pins the zero-allocation guarantee of
// the estimate fast path: with a nil Observer, Estimate performs no heap
// allocations once the estimator's scratch buffers are warm.
func TestEstimateNilObserverZeroAllocs(t *testing.T) {
	e, err := NewEstimator(model.PaperTestbed(), cost.PaperTable(), stencilAnnotations(600, false))
	if err != nil {
		t.Fatal(err)
	}
	cfg := cost.Config{
		Clusters: []string{model.Sparc2Cluster, model.IPCCluster},
		Counts:   []int{4, 2},
	}
	// Warm the scratch buffers (first call sizes them).
	if _, err := e.Estimate(cfg); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := e.Estimate(cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Estimate with nil observer allocates %.1f/op, want 0", allocs)
	}

	// Rebinding the evaluator to another cluster list (reordered, shorter)
	// reuses its buffers.
	cfgs := []cost.Config{cfg,
		{Clusters: []string{model.IPCCluster, model.Sparc2Cluster}, Counts: []int{3, 1}},
		{Clusters: []string{model.IPCCluster}, Counts: []int{2}},
	}
	allocs = testing.AllocsPerRun(100, func() {
		for _, c := range cfgs {
			if _, err := e.Estimate(c); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("Estimate rebinding across cluster lists allocates %.1f/op, want 0", allocs)
	}

	// Startup modeling must not break the guarantee either.
	ann := stencilAnnotations(600, false)
	ann.StartupBytesPerPDU = 4 * 600
	es, err := NewEstimator(model.PaperTestbed(), cost.PaperTable(), ann)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := es.Estimate(cfg); err != nil {
		t.Fatal(err)
	}
	allocs = testing.AllocsPerRun(100, func() {
		if _, err := es.Estimate(cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Estimate with startup modeling allocates %.1f/op, want 0", allocs)
	}
}

// TestEstimateSharesDetach documents the scratch-aliasing contract: an
// Estimate's Shares are overwritten by the next Estimate call, and Detach
// makes them durable.
func TestEstimateSharesDetach(t *testing.T) {
	e, err := NewEstimator(model.PaperTestbed(), cost.PaperTable(), stencilAnnotations(600, false))
	if err != nil {
		t.Fatal(err)
	}
	cfg := func(p1, p2 int) cost.Config {
		return cost.Config{
			Clusters: []string{model.Sparc2Cluster, model.IPCCluster},
			Counts:   []int{p1, p2},
		}
	}
	first, err := e.Estimate(cfg(6, 0))
	if err != nil {
		t.Fatal(err)
	}
	kept := first.Detach()
	want := append([]float64(nil), first.Shares...)
	if _, err := e.Estimate(cfg(1, 1)); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if kept.Shares[i] != want[i] {
			t.Fatalf("detached shares changed: %v, want %v", kept.Shares, want)
		}
	}
}

// TestCommCostMatchesTable cross-checks the evaluator's allocation-free
// Eq. 2 composition, the burst half of commCost at the configuration an
// Estimate just bound, against the reference cost.Table.CommCost over
// every topology and a grid of configurations: the two must be bit-for-bit
// identical (RouterStation semantics). Off the staggered 1-D phase the
// burst is also Estimate's TcommMs.
func TestCommCostMatchesTable(t *testing.T) {
	net := model.PaperTestbed()
	tbl := cost.PaperTable()
	for _, name := range topo.Names() {
		// The paper table only fits 1-D; give every topology the same
		// constants so each pattern's composition is exercised.
		tbl.SetComm(model.Sparc2Cluster, name, cost.Params{C1: 0.1, C2: 1.1, C3: -0.0055, C4: 0.00283})
		tbl.SetComm(model.IPCCluster, name, cost.Params{C1: 0.2, C2: 1.9, C3: -0.0123, C4: 0.00457})
	}
	for _, name := range topo.Names() {
		tp, err := topo.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range []float64{0, 240, 2400} {
			ann := stencilAnnotations(600, false)
			ann.Comm[0].Topology = name
			ann.Comm[0].BytesPerMessage = func(float64) float64 { return b }
			e, err := NewEstimator(net, tbl, ann)
			if err != nil {
				t.Fatal(err)
			}
			for p1 := 0; p1 <= 6; p1++ {
				for p2 := 0; p2 <= 6; p2++ {
					if p1+p2 == 0 {
						continue
					}
					cfg := cost.Config{
						Clusters: []string{model.Sparc2Cluster, model.IPCCluster},
						Counts:   []int{p1, p2},
					}
					got, err := e.Estimate(cfg)
					if err != nil {
						t.Fatalf("%s %v b=%v: %v", name, cfg, b, err)
					}
					want, err := tbl.CommCost(net, tp, b, cfg)
					if err != nil {
						t.Fatalf("%s %v b=%v reference: %v", name, cfg, b, err)
					}
					burst := got.TcommMs // a single task exchanges nothing
					if p1+p2 > 1 {
						if burst, _, _, err = e.eval.commCost(got.BytesPerMsg, p1+p2); err != nil {
							t.Fatal(err)
						}
					}
					if burst != want {
						t.Errorf("%s %v b=%v: evaluator %v, reference %v", name, cfg, b, burst, want)
					}
					if name != "1-D" && got.TcommMs != want {
						t.Errorf("%s %v b=%v: Estimate's Tcomm %v, reference %v", name, cfg, b, got.TcommMs, want)
					}
				}
			}
		}
	}
}

// TestCloneConcurrentPartitions is the -race proof for per-worker estimator
// cloning: clones of one estimator run full Partition searches concurrently
// and must agree with the serial result, with independent evaluation
// counters (the shared counter was the data race the Clone API removes).
func TestCloneConcurrentPartitions(t *testing.T) {
	e, err := NewEstimator(model.PaperTestbed(), cost.PaperTable(), stencilAnnotations(1200, false))
	if err != nil {
		t.Fatal(err)
	}
	serial, err := Partition(e.Clone())
	if err != nil {
		t.Fatal(err)
	}

	const workers = 8
	results := make([]Result, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			clone := e.Clone()
			for i := 0; i < 5; i++ { // repeat to stress scratch reuse
				results[w], errs[w] = Partition(clone)
				if errs[w] != nil {
					return
				}
			}
			if got := clone.Evaluations(); got != serial.Evaluations {
				errs[w] = fmt.Errorf("clone counted %d evaluations, want %d", got, serial.Evaluations)
			}
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		r := results[w]
		if r.TcMs != serial.TcMs || r.Config.String() != serial.Config.String() {
			t.Errorf("worker %d diverged: %v (T_c %v) vs %v (T_c %v)",
				w, r.Config, r.TcMs, serial.Config, serial.TcMs)
		}
		for i, v := range r.Vector {
			if serial.Vector[i] != v {
				t.Errorf("worker %d vector %v, want %v", w, r.Vector, serial.Vector)
				break
			}
		}
	}
	// The original estimator was never used by the workers: still zero.
	if e.Evaluations() != 0 {
		t.Errorf("parent estimator counter moved to %d; clones must not share it", e.Evaluations())
	}
}

// raceDetector reports whether this test binary was built with -race.
func raceDetector() bool {
	bi, _ := debug.ReadBuildInfo()
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// fiveClusterEstimator is an estimator over five clusters on five router-
// joined segments, alternating data formats, and the paper's stencil.
func fiveClusterEstimator(t *testing.T, n int) *Estimator {
	t.Helper()
	net := &model.Network{
		Router: model.Router{Name: "r", PerByteMs: 0.0006},
		Coerce: model.CoercePolicy{PerByteMs: 0.0004},
	}
	tbl := cost.NewTable()
	for i := 0; i < 5; i++ {
		name, seg := fmt.Sprintf("c%d", i), fmt.Sprintf("s%d", i)
		format := model.FormatBigEndian
		if i%2 == 1 {
			format = model.FormatLittleEndian
		}
		flop := 0.0002 * float64(i+1)
		net.Clusters = append(net.Clusters, &model.Cluster{
			Name: name, Procs: 4, Available: 4, FloatOpTime: flop, IntOpTime: flop,
			Format: format, Segment: seg, MsgOverheadMs: 0.5, HostPerByteMs: 0.001,
		})
		net.Segments = append(net.Segments, &model.Segment{Name: seg, BytesPerMs: 1250})
		net.Router.Segments = append(net.Router.Segments, seg)
		tbl.SetComm(name, "1-D", cost.Params{C1: 0.1, C2: 1 + 0.1*float64(i), C3: -0.005, C4: 0.003})
		for j := 0; j < i; j++ {
			tbl.SetRouter(name, fmt.Sprintf("c%d", j), cost.PerByte{FixedMs: 0.2, Ms: 0.0005})
			tbl.SetCoerce(name, fmt.Sprintf("c%d", j), cost.PerByte{Ms: 0.0003})
		}
	}
	e, err := NewEstimator(net, tbl, stencilAnnotations(n, false))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestResultOwnsItsSlices pins the ownership contract of Result: each
// further search or estimate on the same estimator leaves an earlier
// Result's configuration, shares and vector untouched.
func TestResultOwnsItsSlices(t *testing.T) {
	e := paperEstimator(t, 1200, false)
	first, err := Partition(e)
	if err != nil {
		t.Fatal(err)
	}
	clusters, counts := slices.Clone(first.Config.Clusters), slices.Clone(first.Config.Counts)
	shares, vec := slices.Clone(first.Shares), slices.Clone(first.Vector)
	for _, step := range []struct {
		name string
		run  func() error
	}{
		{"Partition", func() error { _, err := Partition(e); return err }},
		{"Estimate", func() error {
			_, err := e.Estimate(cost.Config{Clusters: []string{model.IPCCluster, model.Sparc2Cluster}, Counts: []int{3, 2}})
			return err
		}},
		{"PartitionLinear", func() error { _, err := PartitionLinear(e); return err }},
	} {
		if err := step.run(); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(first.Config.Clusters, clusters) || !slices.Equal(first.Config.Counts, counts) ||
			!slices.Equal(first.Shares, shares) || !slices.Equal(first.Vector, vec) {
			t.Errorf("after %s the first Result reads %v %v %v, want %v %v %v", step.name,
				first.Config, first.Shares, first.Vector, cost.Config{Clusters: clusters, Counts: counts}, shares, vec)
		}
	}
}

// TestDecisionAllocations pins what one decision allocates: a fresh
// NewEstimator + Partition allocates the estimator and the Result's three
// slices, whose shares are the evaluator's buffer handed over; on a
// network larger than the evaluator's rooms, also its per-cluster state
// and its per-pair state (only once a probe crosses a segment). Partition
// on a reused estimator allocates only the Result's slices.
func TestDecisionAllocations(t *testing.T) {
	if raceDetector() {
		t.Skip("the race detector changes allocation counts")
	}
	for _, tc := range []struct {
		name  string
		mk    func(t *testing.T) *Estimator
		fresh float64 // the ceiling for a fresh estimator
	}{
		{"paper", func(t *testing.T) *Estimator { return paperEstimator(t, 1200, false) }, 4},
		{"five-cluster", func(t *testing.T) *Estimator { return fiveClusterEstimator(t, 1200) }, 6},
		// Settles inside the Sparc2 segment: no pair memo is taken.
		{"one segment", func(t *testing.T) *Estimator { return paperEstimator(t, 60, false) }, 4},
	} {
		e := tc.mk(t)
		res, err := Partition(e)
		if err != nil {
			t.Fatal(err)
		}
		if tc.name == "five-cluster" && res.Config.Counts[4] == 0 {
			t.Fatalf("five-cluster decision %v leaves the slowest cluster closed", res.Config)
		}
		if tc.name == "one segment" && res.Config.Counts[1] != 0 {
			t.Fatalf("one-segment decision %v opens a second cluster", res.Config)
		}
		fresh := testing.AllocsPerRun(100, func() {
			e, err := NewEstimator(e.Net, e.Costs, e.Ann)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Partition(e); err != nil {
				t.Fatal(err)
			}
		})
		reused := testing.AllocsPerRun(100, func() {
			if _, err := Partition(e); err != nil {
				t.Fatal(err)
			}
		})
		if fresh > tc.fresh || reused > 3 {
			t.Errorf("%s: %.0f allocations fresh (want <= %.0f), %.0f reused (want <= 3)", tc.name, fresh, tc.fresh, reused)
		}
	}
}
