package commbench

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"netpart/internal/cost"
	"netpart/internal/model"
	"netpart/internal/simnet"
	"netpart/internal/topo"
)

// The step programs as the tests run them, each on a runner of its own.

func measureCycle(net *model.Network, cluster string, tp topo.Topology, p, b, cycles int, opts ...simnet.Option) (float64, error) {
	r, err := newRunner(net, p)
	if err != nil {
		return 0, err
	}
	end, err := r.exchange(p, cluster, cluster, neighbours(tp, p), b, cycles, 0, opts)
	return end / float64(cycles), err
}

// measureStagger runs the stagger program of the chain of pa ranks on
// cluster a followed by pc on cluster c (a cluster's own at pc = 0).
func measureStagger(net *model.Network, a string, pa int, c string, pc, b int, opts ...simnet.Option) (float64, error) {
	r, err := newRunner(net, pa+pc)
	if err != nil {
		return 0, err
	}
	if pc == 0 {
		c = a
	}
	return r.stagger(pa, a, c, neighbours(topo.OneD{}, pa+pc), b, opts)
}

func measureDelivery(net *model.Network, src, dst string, b int) (float64, error) {
	r, err := newRunner(net, 2)
	if err != nil {
		return 0, err
	}
	err = r.oneMessage(src, dst, b)
	return r.ranks[1].delivered, err
}

func measureSendCPU(net *model.Network, src, dst string, b int) (float64, error) {
	r, err := newRunner(net, 2)
	if err != nil {
		return 0, err
	}
	err = r.oneMessage(src, dst, b)
	return r.ranks[0].end, err
}

func TestMeasureCycleGrowsWithPAndB(t *testing.T) {
	net := model.PaperTestbed()
	small, err := measureCycle(net, model.Sparc2Cluster, topo.OneD{}, 2, 240, 5)
	if err != nil {
		t.Fatal(err)
	}
	moreProcs, err := measureCycle(net, model.Sparc2Cluster, topo.OneD{}, 6, 240, 5)
	if err != nil {
		t.Fatal(err)
	}
	bigger, err := measureCycle(net, model.Sparc2Cluster, topo.OneD{}, 2, 4800, 5)
	if err != nil {
		t.Fatal(err)
	}
	if moreProcs <= small {
		t.Errorf("contention: p=6 (%v) not costlier than p=2 (%v)", moreProcs, small)
	}
	if bigger <= small {
		t.Errorf("bandwidth: b=4800 (%v) not costlier than b=240 (%v)", bigger, small)
	}
	if _, err := measureCycle(net, model.Sparc2Cluster, topo.OneD{}, 1, 240, 5); err == nil {
		t.Error("p=1 should error")
	}
}

func TestMeasureDeliveryCrossSegmentCostsMore(t *testing.T) {
	net := model.PaperTestbed()
	local, err := measureDelivery(net, model.Sparc2Cluster, model.Sparc2Cluster, 2400)
	if err != nil {
		t.Fatal(err)
	}
	cross, err := measureDelivery(net, model.Sparc2Cluster, model.IPCCluster, 2400)
	if err != nil {
		t.Fatal(err)
	}
	if cross <= local {
		t.Errorf("cross-segment %v not costlier than local %v", cross, local)
	}
}

func TestMeasureSendCPUCoercion(t *testing.T) {
	net := model.Figure1Network()
	same, err := measureSendCPU(net, "sun4", "hp", 1000) // same format
	if err != nil {
		t.Fatal(err)
	}
	coerced, err := measureSendCPU(net, "sun4", "rs6000", 1000) // differs
	if err != nil {
		t.Fatal(err)
	}
	wantDelta := net.Coerce.PerByteMs * 1000
	if math.Abs((coerced-same)-wantDelta) > 1e-9 {
		t.Errorf("coercion delta = %v, want %v", coerced-same, wantDelta)
	}
}

func TestRunRecoversCalibratedConstants(t *testing.T) {
	// DESIGN.md §5: the testbed is calibrated so fitting the simulator
	// recovers constants close to the paper's published ones. Check the
	// dominant slopes.
	net := model.PaperTestbed()
	res, err := Run(net, []topo.Topology{topo.OneD{}}, DefaultGrid())
	if err != nil {
		t.Fatal(err)
	}
	sparc, err := res.Table.Comm(model.Sparc2Cluster, "1-D")
	if err != nil {
		t.Fatal(err)
	}
	// Paper: c4 ≈ 0.00283 ms/byte/proc, c2 ≈ 1.1 ms/proc.
	if math.Abs(sparc.C4-0.00283)/0.00283 > 0.15 {
		t.Errorf("sparc2 c4 = %v, want ≈ 0.00283", sparc.C4)
	}
	if math.Abs(sparc.C2-1.1)/1.1 > 0.25 {
		t.Errorf("sparc2 c2 = %v, want ≈ 1.1", sparc.C2)
	}
	ipc, err := res.Table.Comm(model.IPCCluster, "1-D")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ipc.C4-0.00457)/0.00457 > 0.15 {
		t.Errorf("ipc c4 = %v, want ≈ 0.00457", ipc.C4)
	}
	if math.Abs(ipc.C2-1.9)/1.9 > 0.25 {
		t.Errorf("ipc c2 = %v, want ≈ 1.9", ipc.C2)
	}
	// Router slope ≈ 0.0006 ms/byte.
	router := res.Table.Router(model.Sparc2Cluster, model.IPCCluster)
	if math.Abs(router.Ms-0.0006)/0.0006 > 0.10 {
		t.Errorf("router slope = %v, want ≈ 0.0006", router.Ms)
	}
	// Fits over deterministic linear-cost data should be excellent.
	for _, f := range res.Fits {
		if f.Quality.R2 < 0.99 {
			t.Errorf("%s/%s: R² = %v", f.Cluster, f.Topology, f.Quality.R2)
		}
		if f.Samples < 8 {
			t.Errorf("%s/%s: only %d samples", f.Cluster, f.Topology, f.Samples)
		}
	}
}

// TestFitsBitIdentical pins the fitted table bit for bit: every constant
// below was recorded before the simulator's event loop became baton
// passing. A change to how simnet runs its events that moved any virtual
// time would move a fit.
func TestFitsBitIdentical(t *testing.T) {
	res, err := Run(model.PaperTestbed(), []topo.Topology{topo.OneD{}, topo.Broadcast{}, topo.Mesh2D{}}, DefaultGrid())
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		cluster, topology string
		c                 [4]uint64 // C1..C4 as math.Float64bits
	}{
		{"ipc", "1-D", [4]uint64{0xbffe3d70a3d70bc2, 0x3ffe6666666666d4, 0xbf72b7fe08aefb10, 0x3f72b7fe08aefb24}},
		{"ipc", "2-D", [4]uint64{0xc00e51eb851eb882, 0x400547ae147ae166, 0xbf82b7fe08aefb17, 0x3f7a34ca0c282c5f}},
		{"ipc", "broadcast", [4]uint64{0xbffe3d70a3d70bc2, 0x3ffe6666666666d4, 0xbf72b7fe08aefb10, 0x3f72b7fe08aefb24}},
		{"sparc2", "1-D", [4]uint64{0xbff170a3d70a40c2, 0x3ff1999999999a6e, 0xbf672ef0ae536452, 0x3f672ef0ae5364d5}},
		{"sparc2", "2-D", [4]uint64{0xc001851eb851eca8, 0x3ff8a3d70a3d7129, 0xbf772ef0ae5364c9, 0x3f703a7546d3f9d9}},
		{"sparc2", "broadcast", [4]uint64{0xbff170a3d70a40c2, 0x3ff1999999999a6e, 0xbf672ef0ae536452, 0x3f672ef0ae5364d5}},
	}
	if len(res.Fits) != len(want) {
		t.Fatalf("%d fits, want %d", len(res.Fits), len(want))
	}
	for i, f := range res.Fits {
		w := want[i]
		p := f.Params
		got := [4]uint64{math.Float64bits(p.C1), math.Float64bits(p.C2), math.Float64bits(p.C3), math.Float64bits(p.C4)}
		if f.Cluster != w.cluster || f.Topology != w.topology || got != w.c {
			t.Errorf("fit %d: %s/%s %#x, want %s/%s %#x", i, f.Cluster, f.Topology, got, w.cluster, w.topology, w.c)
		}
	}
	router := res.Router[[2]string{model.Sparc2Cluster, model.IPCCluster}]
	if len(res.Router) != 1 || math.Float64bits(router.Ms) != 0x3f43a92a3055325f || router.FixedMs != 0 {
		t.Errorf("router fits %+v, want sparc2-ipc slope bits 0x3f43a92a3055325f", res.Router)
	}
	if len(res.Coerce) != 0 {
		t.Errorf("coercion fits %+v on a single-format testbed", res.Coerce)
	}
	// The chain table, each entry a line's FixedMs and Ms: every cluster
	// alone at p = 2 … Procs, the pair at one rank each (recorded when it
	// was the pair's stagger), then the walk's sparc2:6 + ipc:1…6. The p = 2
	// lines are those recorded when the stagger program was added (equal to
	// the goroutine reference's); p = 3 … 6 were recorded when a single
	// cluster became a chain of one, each the line through its own two
	// measurements.
	wantChain := []struct {
		a     string
		pa    int
		b     string
		pb    int
		fixed [2]uint64
	}{
		{"sparc2", 2, "", 0, [2]uint64{0x3fe68f5c28f5cc0a, 0x3f59806f26288889}},    // 2.57 ms at 1200 B
		{"sparc2", 3, "", 0, [2]uint64{0x3ff599999999a64f, 0x3f69806f262887dd}},    // 5.09
		{"sparc2", 4, "", 0, [2]uint64{0x3ffbae147ae155da, 0x3f70ced4e4c9423f}},    // 6.65
		{"sparc2", 5, "", 0, [2]uint64{0x40007ae147ae1e10, 0x3f7449129888f73e}},    // 8.00
		{"sparc2", 6, "", 0, [2]uint64{0x40031eb851eb8ef4, 0x3f77c3504c48ace9}},    // 9.35
		{"ipc", 2, "", 0, [2]uint64{0x3ff251eb851ebcb5, 0x3f649731098d46f6}},       // 4.16
		{"ipc", 3, "", 0, [2]uint64{0x4001d70a3d70aa18, 0x3f749731098d462e}},       // 8.26
		{"ipc", 4, "", 0, [2]uint64{0x40071eb851eb8bfa, 0x3f7b24638c975148}},       // 10.84
		{"ipc", 5, "", 0, [2]uint64{0x400bae147ae150c2, 0x3f8060fe47991af3}},       // 13.06
		{"ipc", 6, "", 0, [2]uint64{0x40101eb851eb89c2, 0x3f832fcac8e68d5b}},       // 15.27
		{"sparc2", 1, "ipc", 1, [2]uint64{0x40000000000004a4, 0x3f72b7fe08aefa63}}, // 7.48
		{"sparc2", 6, "ipc", 1, [2]uint64{0x4003b1da46102e65, 0x3f7a4508713e702d}}, // 10.16
		{"sparc2", 6, "ipc", 2, [2]uint64{0x4004065103baca89, 0x3f80cd82fea347f8}}, // 12.35
		{"sparc2", 6, "ipc", 3, [2]uint64{0x4009f4988b2d899a, 0x3f848df2911cba0c}}, // 15.29
		{"sparc2", 6, "ipc", 4, [2]uint64{0x400fbdaa966e5eb6, 0x3f8540f3532769e2}}, // 16.42
		{"sparc2", 6, "ipc", 5, [2]uint64{0x4013428f5c28fb42, 0x3f86ee30caa325d6}}, // 18.25
		{"sparc2", 6, "ipc", 6, [2]uint64{0x401709f87469a813, 0x3f8b9cc377f5bba0}}, // 21.94
	}
	if len(res.Chains) != len(wantChain) {
		t.Fatalf("%d chain entries, want %d", len(res.Chains), len(wantChain))
	}
	for i, f := range res.Chains {
		w := wantChain[i]
		got := [2]uint64{math.Float64bits(f.Stagger.FixedMs), math.Float64bits(f.Stagger.Ms)}
		if f.A != w.a || f.PA != w.pa || f.B != w.b || f.PB != w.pb || got != w.fixed || f.Samples != 2 {
			t.Errorf("chain %d: %s:%d+%s:%d %#x (%d samples), want %s:%d+%s:%d %#x", i, f.A, f.PA, f.B, f.PB, got, f.Samples, w.a, w.pa, w.b, w.pb, w.fixed)
		}
	}

	// Run's pool: one worker and several give the same fits and table,
	// bit for bit, each runner's simulator reset between programs.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	want0 := fingerprint(t, res)
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		r, err := Run(model.PaperTestbed(), []topo.Topology{topo.OneD{}, topo.Broadcast{}, topo.Mesh2D{}}, DefaultGrid())
		if err != nil {
			t.Fatal(err)
		}
		if got := fingerprint(t, r); got != want0 {
			t.Errorf("GOMAXPROCS %d:\n%s\nwant\n%s", procs, got, want0)
		}
	}
}

// fingerprint renders a Result's fits and table exactly: %v prints each
// float64 in the shortest form that reads back to the same bits.
func fingerprint(t *testing.T, res *Result) string {
	t.Helper()
	var b strings.Builder
	fmt.Fprintf(&b, "%+v\n%+v\n", res.Fits, res.Chains)
	if err := cost.WriteTable(&b, res.Table); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// programs counts a plan's distinct programs by kind.
func programs(pl *plan) map[progKind]int {
	n := make(map[progKind]int)
	for _, pr := range pl.progs {
		n[pr.kind]++
	}
	return n
}

// TestSharedProgramsMeasureAlike holds the premise of Run's dedupe: a
// program two topologies share measures the same whichever one asks for
// it. On a seven-processor cluster 2-D at p = 2, 3, 5 and 7 is 1-D's
// program, and so is broadcast at p = 2; a Run over all three topologies
// measures those through 1-D, and its 2-D fits must equal those of a Run
// over 2-D alone, bit for bit, with and without jitter.
func TestSharedProgramsMeasureAlike(t *testing.T) {
	net := model.PaperTestbed()
	net.Clusters[0].Procs, net.Clusters[0].Available = 7, 7
	all := []topo.Topology{topo.OneD{}, topo.Broadcast{}, topo.Mesh2D{}}
	for _, jitter := range []float64{0, 0.2} {
		grid := DefaultGrid()
		grid.Jitter, grid.Seed = jitter, 1994
		pl, err := newPlan(net, all, grid)
		if err != nil {
			t.Fatal(err)
		}
		// Per message size: sparc2 (p = 2..7) 1-D 6, broadcast 5, 2-D 2
		// (p = 4, 6); ipc (p = 2..6) 5, 4 and 2. 24 of 33 cycles; the
		// pair's three deliveries are distinct. The stagger program at the
		// smallest and largest size: sparc2 at p = 2..7, ipc at p = 2..6,
		// the pair at 1+1 and the walk's chains sparc2:7 + ipc:1..6, 18 per
		// size.
		b := len(grid.Bytes)
		if got, want := programs(pl), (map[progKind]int{progCycle: 24 * b, progDelivery: 3 * b, progStagger: 2 * 18}); !maps.Equal(got, want) {
			t.Errorf("jitter %v: programs %v, want %v", jitter, got, want)
		}
		both, err := Run(net, all, grid)
		if err != nil {
			t.Fatal(err)
		}
		alone, err := Run(net, []topo.Topology{topo.Mesh2D{}}, grid)
		if err != nil {
			t.Fatal(err)
		}
		var got []ClusterFit
		for _, f := range both.Fits {
			if f.Topology == "2-D" {
				got = append(got, f)
			}
		}
		if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", alone.Fits) {
			t.Errorf("jitter %v: 2-D fits beside 1-D and broadcast\n%+v\nwant, as fitted alone,\n%+v", jitter, got, alone.Fits)
		}
	}
}

// TestSelfDeliveryOncePerSize: each cluster's d_ii is one program per
// message size however many cross-segment pairs it is in. Fig. 1's three
// clusters are pairwise across the router and rs6000's format differs from
// the other two.
func TestSelfDeliveryOncePerSize(t *testing.T) {
	grid := DefaultGrid()
	pl, err := newPlan(model.Figure1Network(), []topo.Topology{topo.OneD{}}, grid)
	if err != nil {
		t.Fatal(err)
	}
	// Per size: 3 crossing deliveries and 3 self-deliveries (9 listed);
	// send CPU a→b and a→a for sun4-rs6000 and hp-rs6000; 1-D at p = 2..4
	// on each of the three clusters; the stagger program at p = 2..4 on
	// each, on the three pairs at 1+1 and on the walk's chains rs6000:4 +
	// hp:1..4, at two sizes.
	b := len(grid.Bytes)
	want := map[progKind]int{progCycle: 9 * b, progDelivery: 6 * b, progSendCPU: 4 * b, progStagger: 2 * 16}
	if got := programs(pl); !maps.Equal(got, want) {
		t.Errorf("programs %v, want %v", got, want)
	}
}

func TestRunFitsCoercionWhenFormatsDiffer(t *testing.T) {
	net := model.Figure1Network()
	res, err := Run(net, []topo.Topology{topo.OneD{}}, Grid{Bytes: []int{240, 2400}, Cycles: 3})
	if err != nil {
		t.Fatal(err)
	}
	coerce := res.Table.Coerce("rs6000", "sun4")
	if math.Abs(coerce.Ms-net.Coerce.PerByteMs)/net.Coerce.PerByteMs > 0.05 {
		t.Errorf("coercion slope = %v, want ≈ %v", coerce.Ms, net.Coerce.PerByteMs)
	}
	// Same-format pair must have a router entry but no coercion entry.
	if res.Table.Coerce("sun4", "hp").Ms != 0 {
		t.Error("same-format pair should not fit a coercion cost")
	}
	if res.Table.Router("sun4", "hp").Ms <= 0 {
		t.Error("cross-segment pair missing router cost")
	}
}

func TestRunValidation(t *testing.T) {
	net := model.PaperTestbed()
	if _, err := Run(net, []topo.Topology{topo.OneD{}}, Grid{Bytes: []int{100}}); err == nil {
		t.Error("single byte size accepted")
	}
	small := model.PaperTestbed()
	small.Clusters[0].Procs = 2
	small.Clusters[0].Available = 2
	if _, err := Run(small, []topo.Topology{topo.OneD{}}, DefaultGrid()); err == nil {
		t.Error("2-processor cluster cannot vary p; should error")
	}
}

// TestStaggerIgnoresGridCycles: the chain table's programs run
// StaggerCycles cycles whatever the grid's Cycles, so a measurement flag
// cannot move it.
func TestStaggerIgnoresGridCycles(t *testing.T) {
	net := model.PaperTestbed()
	var runs [2][]ChainFit
	for i, cycles := range []int{1, StaggerCycles + 5} {
		res, err := Run(net, []topo.Topology{topo.OneD{}}, Grid{Bytes: []int{240, 2400}, Cycles: cycles})
		if err != nil {
			t.Fatal(err)
		}
		runs[i] = res.Chains
	}
	if len(runs[0]) == 0 || !reflect.DeepEqual(runs[0], runs[1]) {
		t.Errorf("chain table at 1 cycle %+v, at %d %+v", runs[0], StaggerCycles+5, runs[1])
	}
}

func TestRunCoversAllTopologies(t *testing.T) {
	net := model.PaperTestbed()
	tops := []topo.Topology{topo.OneD{}, topo.Ring{}, topo.Broadcast{}}
	res, err := Run(net, tops, Grid{Bytes: []int{240, 2400}, Cycles: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []string{model.Sparc2Cluster, model.IPCCluster} {
		for _, tp := range tops {
			if _, err := res.Table.Comm(c, tp.Name()); err != nil {
				t.Errorf("missing model %s/%s", c, tp.Name())
			}
		}
	}
	if len(res.Fits) != 6 {
		t.Errorf("fits = %d, want 6", len(res.Fits))
	}
}

// TestRunnerReuseMatchesFresh: every program of a plan, run one after
// another on one runner (its simulator reset between them, the jitter
// re-seeded), measures what it measures on a runner of its own, bit for
// bit. The programs run in reverse order, so each follows a different one
// than in Run.
func TestRunnerReuseMatchesFresh(t *testing.T) {
	grid := DefaultGrid()
	grid.Jitter, grid.Seed = 0.2, 2741
	net := model.Figure1Network()
	pl, err := newPlan(net, []topo.Topology{topo.OneD{}, topo.Ring{}}, grid)
	if err != nil {
		t.Fatal(err)
	}
	shared, err := newRunner(net, pl.maxP)
	if err != nil {
		t.Fatal(err)
	}
	for i := len(pl.progs) - 1; i >= 0; i-- {
		pr := pl.progs[i]
		fresh, err := newRunner(net, pl.maxP)
		if err != nil {
			t.Fatal(err)
		}
		want, werr := pl.measure(fresh, pr)
		got, gerr := pl.measure(shared, pr)
		sameBits(t, fmt.Sprintf("%+v", pr), got, want, gerr, werr)
	}
}

// TestThreeProcessorCluster: every cluster alone at p = 2 … Procs is a
// chain table entry whose line gives the measured stagger at both sizes,
// down to a three-processor cluster's single p ≥ 3, and none past Procs.
// The network is drawn as the generated networks are (3–6 processors per
// cluster); seed 1 gives a three-processor cluster.
func TestThreeProcessorCluster(t *testing.T) {
	net := generatedNetwork(1)
	grid := DefaultGrid()
	res, err := Run(net, []topo.Topology{topo.OneD{}}, grid)
	if err != nil {
		t.Fatal(err)
	}
	three := 0
	for _, c := range net.Clusters {
		if c.Procs == 3 {
			three++
		}
		chain := res.Table.Chain(c.Name, "")
		for p := 2; p <= c.Procs; p++ {
			line, ok := chain.Line(p, 0)
			if !ok {
				t.Fatalf("%s:%d: no stagger", c.Name, p)
			}
			for _, b := range []int{slices.Min(grid.Bytes), slices.Max(grid.Bytes)} {
				x, err := measureStagger(net, c.Name, p, "", 0, b)
				if err != nil {
					t.Fatal(err)
				}
				if got := line.Eval(float64(b)); math.Abs(got-x) > 1e-9*x {
					t.Errorf("%s:%d b=%d: stagger line %v, measured %v", c.Name, p, b, got, x)
				}
			}
		}
		if _, ok := chain.Line(c.Procs+1, 0); ok {
			t.Errorf("%s: a line past its %d processors", c.Name, c.Procs)
		}
	}
	if three == 0 {
		t.Fatal("the drawn network has no three-processor cluster")
	}
}

// generatedNetwork draws a network as the benchmark's generator does: two
// to five clusters of three to six processors, each on a segment of its
// own behind one router, three in ten of another data format.
func generatedNetwork(seed int64) *model.Network {
	rng := rand.New(rand.NewSource(seed))
	net := &model.Network{
		Router: model.Router{Name: "router", PerByteMs: 0.0006},
		Coerce: model.CoercePolicy{PerByteMs: 0.0004},
	}
	for i := range 2 + rng.Intn(4) {
		name, seg := fmt.Sprintf("c%d", i), fmt.Sprintf("seg%d", i)
		procs := 3 + rng.Intn(4)
		format := model.FormatBigEndian
		if rng.Intn(10) < 3 {
			format = model.FormatLittleEndian
		}
		flop := 0.0001 + 0.0007*rng.Float64()
		net.Clusters = append(net.Clusters, &model.Cluster{
			Name: name, Procs: procs, Available: procs - rng.Intn(2),
			FloatOpTime: flop, IntOpTime: 0.7 * flop, Format: format, Segment: seg,
			MsgOverheadMs: 0.3 + 0.9*rng.Float64(), HostPerByteMs: 0.0003 + 0.0013*rng.Float64(),
		})
		net.Segments = append(net.Segments, &model.Segment{Name: seg, BytesPerMs: 1250})
		net.Router.Segments = append(net.Router.Segments, seg)
	}
	return net
}
