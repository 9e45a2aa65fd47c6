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
	end, err := r.exchange(cluster, cluster, neighbours(tp, p), b, cycles, 0, opts)
	return end / float64(cycles), err
}

// measureStagger runs the stagger program at p ranks on cluster a, or at
// one rank on a and one on c when c is set.
func measureStagger(net *model.Network, a, c string, p, b int, opts ...simnet.Option) (float64, error) {
	if c != "" {
		p = 2
	}
	r, err := newRunner(net, p)
	if err != nil {
		return 0, err
	}
	return r.stagger(a, c, neighbours(topo.OneD{}, p), b, opts)
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
	// The stagger models (recorded when the stagger program was added, and
	// equal to the goroutine reference's): per cluster, and for the pair,
	// Two's FixedMs and Ms, then Many's C1..C4.
	wantStagger := []struct {
		cluster, with string
		c             [6]uint64
	}{
		{"sparc2", "", [6]uint64{0x3fe68f5c28f5cc0a, 0x3f59806f26288889, 0x3fd51eb851eb9f61, 0x3fd6147ae147b6e7, 0x3f3f8784c41f81ee, 0x3f4d36064c4a59b6}},
		{"ipc", "", [6]uint64{0x3ff251eb851ebcb5, 0x3f649731098d46f6, 0x3fddd2f1a9fbf7b1, 0x3fe31a9fbe76cdda, 0x3f49751c0bcf3c82, 0x3f5795e90af0f3f7}},
		{"sparc2", "ipc", [6]uint64{0x40000000000004a4, 0x3f72b7fe08aefa63, 0, 0, 0, 0}},
	}
	if len(res.Staggers) != len(wantStagger) {
		t.Fatalf("%d stagger fits, want %d", len(res.Staggers), len(wantStagger))
	}
	for i, f := range res.Staggers {
		w, st := wantStagger[i], f.Stagger
		got := [6]uint64{math.Float64bits(st.Two.FixedMs), math.Float64bits(st.Two.Ms),
			math.Float64bits(st.Many.C1), math.Float64bits(st.Many.C2), math.Float64bits(st.Many.C3), math.Float64bits(st.Many.C4)}
		if f.Cluster != w.cluster || f.With != w.with || got != w.c {
			t.Errorf("stagger %d: %s-%s %#x, want %s-%s %#x", i, f.Cluster, f.With, got, w.cluster, w.with, w.c)
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
	fmt.Fprintf(&b, "%+v\n%+v\n", res.Fits, res.Staggers)
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
		// smallest and largest size: sparc2 at p = 2..7, ipc at p = 2..6
		// and the pair, 12 per size.
		b := len(grid.Bytes)
		if got, want := programs(pl), (map[progKind]int{progCycle: 24 * b, progDelivery: 3 * b, progStagger: 2 * 12}); !maps.Equal(got, want) {
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
	// each and on the three pairs, at two sizes.
	b := len(grid.Bytes)
	want := map[progKind]int{progCycle: 9 * b, progDelivery: 6 * b, progSendCPU: 4 * b, progStagger: 2 * 12}
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

// TestStaggerIgnoresGridCycles: the stagger models run StaggerCycles
// cycles whatever the grid's Cycles, so a measurement flag cannot move them.
func TestStaggerIgnoresGridCycles(t *testing.T) {
	net := model.PaperTestbed()
	var runs [2][]StaggerFit
	for i, cycles := range []int{1, StaggerCycles + 5} {
		res, err := Run(net, []topo.Topology{topo.OneD{}}, Grid{Bytes: []int{240, 2400}, Cycles: cycles})
		if err != nil {
			t.Fatal(err)
		}
		runs[i] = res.Staggers
	}
	if len(runs[0]) == 0 || !reflect.DeepEqual(runs[0], runs[1]) {
		t.Errorf("stagger fits at 1 cycle %+v, at %d %+v", runs[0], StaggerCycles+5, runs[1])
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

// TestThreeProcessorCluster: a cluster of three processors has one p ≥ 3,
// so its stagger's Eq. 1 is the p = 3 line (C2 = C4 = 0), which gives the
// measured stagger at p = 3 at both sizes. The network is drawn as the
// generated networks are (3–6 processors per cluster); seed 1 gives a
// three-processor cluster.
func TestThreeProcessorCluster(t *testing.T) {
	net := generatedNetwork(1)
	grid := DefaultGrid()
	res, err := Run(net, []topo.Topology{topo.OneD{}}, grid)
	if err != nil {
		t.Fatal(err)
	}
	three := 0
	for _, c := range net.Clusters {
		if c.Procs != 3 {
			continue
		}
		three++
		_, st, _ := res.Table.Model(c.Name, "1-D")
		if st == nil {
			t.Fatalf("%s: no stagger", c.Name)
		}
		if st.Many.C2 != 0 || st.Many.C4 != 0 {
			t.Errorf("%s: Eq. 1 %v, want C2 = C4 = 0", c.Name, st.Many)
		}
		for _, b := range []int{slices.Min(grid.Bytes), slices.Max(grid.Bytes)} {
			x, err := measureStagger(net, c.Name, "", 3, b)
			if err != nil {
				t.Fatal(err)
			}
			if got := st.Eval(float64(b), 3); math.Abs(got-x) > 1e-9*x {
				t.Errorf("%s b=%d: stagger model %v, measured %v", c.Name, b, got, x)
			}
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
