package core

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"netpart/internal/cost"
	"netpart/internal/model"
)

// stencilAnnotations reproduces the Section 4.0 annotations for the dense
// NxN five-point stencil with row decomposition: PDU = row, 1-D topology,
// 5N flops per row, 4N-byte border messages. overlap selects STEN-2.
func stencilAnnotations(n int, overlap bool) *Annotations {
	name := "STEN-1"
	ovl := ""
	if overlap {
		name = "STEN-2"
		ovl = "grid-update"
	}
	return &Annotations{
		Name:    name,
		NumPDUs: func() int { return n },
		Compute: []ComputationPhase{{
			Name:             "grid-update",
			ComplexityPerPDU: func() float64 { return 5 * float64(n) },
			Class:            model.OpFloat,
		}},
		Comm: []CommunicationPhase{{
			Name:            "border-exchange",
			Topology:        "1-D",
			BytesPerMessage: func(float64) float64 { return 4 * float64(n) },
			Overlap:         ovl,
		}},
		Cycles: 10,
	}
}

func paperEstimator(t *testing.T, n int, overlap bool) *Estimator {
	t.Helper()
	e, err := NewEstimator(model.PaperTestbed(), cost.PaperTable(), stencilAnnotations(n, overlap))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestAnnotationsValidate(t *testing.T) {
	good := stencilAnnotations(600, false)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid annotations rejected: %v", err)
	}
	bad := stencilAnnotations(600, false)
	bad.NumPDUs = nil
	if err := bad.Validate(); !errors.Is(err, ErrNoNumPDUs) {
		t.Errorf("want ErrNoNumPDUs, got %v", err)
	}
	bad = stencilAnnotations(600, false)
	bad.Compute = nil
	if err := bad.Validate(); !errors.Is(err, ErrNoComputePhase) {
		t.Errorf("want ErrNoComputePhase, got %v", err)
	}
	bad = stencilAnnotations(600, false)
	bad.Comm[0].Overlap = "nonexistent"
	if err := bad.Validate(); !errors.Is(err, ErrBadOverlap) {
		t.Errorf("want ErrBadOverlap, got %v", err)
	}
	bad = stencilAnnotations(600, false)
	bad.Comm[0].Topology = "starcube"
	if err := bad.Validate(); err == nil {
		t.Error("unknown topology should fail validation")
	}
	bad = stencilAnnotations(600, false)
	bad.Comm[0].BytesPerMessage = nil
	if err := bad.Validate(); err == nil {
		t.Error("missing comm callback should fail validation")
	}
	bad = stencilAnnotations(600, false)
	bad.Compute[0].ComplexityPerPDU = nil
	if err := bad.Validate(); err == nil {
		t.Error("missing compute callback should fail validation")
	}
}

// TestAnnotationsRejectEmptyProblem: a problem with no PDUs is refused by
// name, both by Validate and by the estimator the partitioner builds,
// instead of surfacing later as a configuration with no processors.
func TestAnnotationsRejectEmptyProblem(t *testing.T) {
	for _, n := range []int{0, -3} {
		a := stencilAnnotations(n, false)
		err := a.Validate()
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%d PDUs", n)) {
			t.Errorf("N = %d: Validate = %v, want an error naming the PDU count", n, err)
		}
		_, err = NewEstimator(model.PaperTestbed(), cost.PaperTable(), a)
		if err == nil || !strings.Contains(err.Error(), "PDUs") {
			t.Errorf("N = %d: NewEstimator = %v, want the PDU-count error", n, err)
		}
	}
}

func TestDominantPhases(t *testing.T) {
	a := stencilAnnotations(600, false)
	a.Compute = append(a.Compute, ComputationPhase{
		Name:             "minor",
		ComplexityPerPDU: func() float64 { return 1 },
	})
	a.Comm = append(a.Comm, CommunicationPhase{
		Name:            "tiny",
		Topology:        "ring",
		BytesPerMessage: func(float64) float64 { return 8 },
	})
	if got := a.DominantCompute(); got.Name != "grid-update" {
		t.Errorf("DominantCompute = %q", got.Name)
	}
	if got := a.DominantComm(); got.Name != "border-exchange" {
		t.Errorf("DominantComm = %q", got.Name)
	}
}

func TestRealSharesMatchPaperFormula(t *testing.T) {
	net := model.PaperTestbed()
	// Paper §6: A[Sparc2] = 2N/(2·P1+P2), A[IPC] = N/(2·P1+P2).
	for _, tc := range []struct{ n, p1, p2 int }{
		{300, 6, 2}, {600, 6, 4}, {1200, 6, 6}, {60, 1, 0},
	} {
		cfg := cost.Config{
			Clusters: []string{model.Sparc2Cluster, model.IPCCluster},
			Counts:   []int{tc.p1, tc.p2},
		}
		shares, err := RealShares(net, cfg, tc.n, model.OpFloat)
		if err != nil {
			t.Fatal(err)
		}
		denom := float64(2*tc.p1 + tc.p2)
		wantS := 2 * float64(tc.n) / denom
		if math.Abs(shares[0]-wantS) > 1e-9 {
			t.Errorf("N=%d P=(%d,%d): sparc2 share %v, want %v", tc.n, tc.p1, tc.p2, shares[0], wantS)
		}
		if tc.p2 > 0 {
			wantI := float64(tc.n) / denom
			if math.Abs(shares[1]-wantI) > 1e-9 {
				t.Errorf("N=%d P=(%d,%d): ipc share %v, want %v", tc.n, tc.p1, tc.p2, shares[1], wantI)
			}
		} else if shares[1] != 0 {
			t.Errorf("unused cluster share = %v, want 0", shares[1])
		}
	}
}

func TestRealSharesErrors(t *testing.T) {
	net := model.PaperTestbed()
	if _, err := RealShares(net, cost.Config{Clusters: []string{"sparc2"}, Counts: []int{0}}, 100, model.OpFloat); !errors.Is(err, ErrNoProcessors) {
		t.Errorf("want ErrNoProcessors, got %v", err)
	}
	if _, err := RealShares(net, cost.Config{Clusters: []string{"bogus"}, Counts: []int{1}}, 100, model.OpFloat); err == nil {
		t.Error("unknown cluster should error")
	}
}

func TestDecomposeTable1Values(t *testing.T) {
	// Paper Table 1 rows that are arithmetically consistent with Eq. 3.
	net := model.PaperTestbed()
	cases := []struct {
		n, p1, p2 int
		a1, a2    int
	}{
		{60, 1, 0, 60, 0},
		{300, 6, 0, 50, 0},
		{60, 2, 0, 30, 0},
		{600, 6, 6, 67, 33}, // 6·67 + 6·33 = 600
	}
	for _, tc := range cases {
		cfg := cost.Config{
			Clusters: []string{model.Sparc2Cluster, model.IPCCluster},
			Counts:   []int{tc.p1, tc.p2},
		}
		v, err := Decompose(net, cfg, tc.n, model.OpFloat)
		if err != nil {
			t.Fatal(err)
		}
		if v.Sum() != tc.n {
			t.Errorf("N=%d: vector sums to %d", tc.n, v.Sum())
		}
		// All Sparc2 tasks should hold about a1 and IPC tasks about a2.
		for r := 0; r < tc.p1; r++ {
			if d := v[r] - tc.a1; d < -1 || d > 1 {
				t.Errorf("N=%d rank %d: %d PDUs, want ≈%d", tc.n, r, v[r], tc.a1)
			}
		}
		for r := tc.p1; r < tc.p1+tc.p2; r++ {
			if d := v[r] - tc.a2; d < -1 || d > 1 {
				t.Errorf("N=%d rank %d: %d PDUs, want ≈%d", tc.n, r, v[r], tc.a2)
			}
		}
	}
}

func TestDecomposeErrors(t *testing.T) {
	net := model.PaperTestbed()
	cfg := cost.Config{Clusters: []string{model.Sparc2Cluster}, Counts: []int{6}}
	if _, err := Decompose(net, cfg, 3, model.OpFloat); !errors.Is(err, ErrTooFewPDUs) {
		t.Errorf("want ErrTooFewPDUs, got %v", err)
	}
}

// TestMalformedConfigRefused pins that every entry point reading a
// configuration refuses counts that do not pair with its clusters, or a
// negative count, with ErrBadConfig naming the configuration — instead of
// panicking or estimating nonsense.
func TestMalformedConfigRefused(t *testing.T) {
	net := model.PaperTestbed()
	two := []string{model.Sparc2Cluster, model.IPCCluster}
	ops := func(x float64) float64 { return x * x }
	entries := map[string]func(cost.Config) error{
		"Estimate": func(cfg cost.Config) error {
			_, err := paperEstimator(t, 600, false).Estimate(cfg)
			return err
		},
		"BeginDelta": func(cfg cost.Config) error {
			_, err := paperEstimator(t, 600, false).BeginDelta(cfg)
			return err
		},
		"RealShares": func(cfg cost.Config) error { _, err := RealShares(net, cfg, 600, model.OpFloat); return err },
		"Decompose":  func(cfg cost.Config) error { _, err := Decompose(net, cfg, 600, model.OpFloat); return err },
		"DecomposeGeneral": func(cfg cost.Config) error {
			_, err := DecomposeGeneral(net, cfg, 600, model.OpFloat, ops)
			return err
		},
	}
	for _, cfg := range []cost.Config{
		{Clusters: two, Counts: []int{3}},
		{Clusters: two[:1], Counts: []int{3, 1}},
		{Clusters: two, Counts: []int{3, -1}},
		{Clusters: two, Counts: []int{-2, 0}},
	} {
		for name, run := range entries {
			err := run(cfg)
			if !errors.Is(err, ErrBadConfig) {
				t.Errorf("%s(%v %v): %v, want ErrBadConfig", name, cfg.Clusters, cfg.Counts, err)
				continue
			}
			if want := fmt.Sprint(cfg.Counts); !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), cfg.Clusters[0]) {
				t.Errorf("%s: %q does not name the configuration %v %v", name, err, cfg.Clusters, cfg.Counts)
			}
		}
	}
}

// Property: for any valid configuration the partition vector sums exactly
// to numPDUs, gives every task at least one PDU, and tasks on faster
// clusters never get fewer PDUs than tasks on slower ones.
func TestDecomposeInvariantsProperty(t *testing.T) {
	net := model.PaperTestbed()
	f := func(p1Raw, p2Raw uint8, nRaw uint16) bool {
		p1 := int(p1Raw%6) + 1
		p2 := int(p2Raw % 7)
		n := int(nRaw%2000) + p1 + p2 // ensure feasible
		cfg := cost.Config{
			Clusters: []string{model.Sparc2Cluster, model.IPCCluster},
			Counts:   []int{p1, p2},
		}
		v, err := Decompose(net, cfg, n, model.OpFloat)
		if err != nil {
			return false
		}
		if v.Sum() != n || len(v) != p1+p2 {
			return false
		}
		for _, a := range v {
			if a < 1 {
				return false
			}
		}
		if p2 > 0 {
			// Sparc2 is twice as fast: its tasks hold ≥ IPC tasks' PDUs.
			minSparc, maxIPC := v[0], 0
			for r := 0; r < p1; r++ {
				if v[r] < minSparc {
					minSparc = v[r]
				}
			}
			for r := p1; r < p1+p2; r++ {
				if v[r] > maxIPC {
					maxIPC = v[r]
				}
			}
			if minSparc+1 < maxIPC { // allow rounding slack of 1
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDecomposeGeneralLinearMatchesEq3(t *testing.T) {
	net := model.PaperTestbed()
	cfg := cost.Config{
		Clusters: []string{model.Sparc2Cluster, model.IPCCluster},
		Counts:   []int{6, 6},
	}
	linear, err := Decompose(net, cfg, 1200, model.OpFloat)
	if err != nil {
		t.Fatal(err)
	}
	general, err := DecomposeGeneral(net, cfg, 1200, model.OpFloat,
		func(pdus float64) float64 { return 6000 * pdus })
	if err != nil {
		t.Fatal(err)
	}
	for r := range linear {
		if d := linear[r] - general[r]; d < -1 || d > 1 {
			t.Errorf("rank %d: linear %d vs general %d", r, linear[r], general[r])
		}
	}
	// nil ops falls back to Decompose.
	fallback, err := DecomposeGeneral(net, cfg, 1200, model.OpFloat, nil)
	if err != nil {
		t.Fatal(err)
	}
	for r := range linear {
		if linear[r] != fallback[r] {
			t.Errorf("nil-ops fallback differs at rank %d", r)
		}
	}
}

func TestDecomposeGeneralBalancesNonlinearWork(t *testing.T) {
	net := model.PaperTestbed()
	cfg := cost.Config{
		Clusters: []string{model.Sparc2Cluster, model.IPCCluster},
		Counts:   []int{4, 4},
	}
	ops := func(pdus float64) float64 { return pdus * pdus } // quadratic work
	v, err := DecomposeGeneral(net, cfg, 800, model.OpFloat, ops)
	if err != nil {
		t.Fatal(err)
	}
	if v.Sum() != 800 {
		t.Fatalf("vector sums to %d", v.Sum())
	}
	// Per-task times S_i·ops(A_i) should be nearly equal across clusters.
	tSparc := 0.0003 * ops(float64(v[0]))
	tIPC := 0.0006 * ops(float64(v[4]))
	if rel := math.Abs(tSparc-tIPC) / tSparc; rel > 0.05 {
		t.Errorf("unbalanced: sparc2 %v ms vs ipc %v ms (rel %.3f)", tSparc, tIPC, rel)
	}
	// Quadratic work → the speed advantage shows as sqrt(2), not 2.
	ratio := float64(v[0]) / float64(v[4])
	if math.Abs(ratio-math.Sqrt2) > 0.1 {
		t.Errorf("share ratio %v, want ≈ √2", ratio)
	}
}

// measuredPaperTable is the paper's table with the stagger commbench
// measures on the paper's testbed (cmd/commbench -topologies 1-D),
// rounded as it prints: sparc2's Eq. 1 over p ≥ 3 and p = 2 line, and the
// sparc2-ipc pair's line.
func measuredPaperTable() *cost.Table {
	tbl := cost.PaperTable()
	tbl.SetStagger(model.Sparc2Cluster, cost.Stagger{
		Two:  cost.PerByte{FixedMs: 0.705, Ms: 0.001556},
		Many: cost.Params{C1: 0.33, C2: 0.345, C3: 0.0004811, C4: 0.0008914},
	})
	tbl.SetPairStagger(model.Sparc2Cluster, model.IPCCluster, cost.PerByte{FixedMs: 2, Ms: 0.00457})
	return tbl
}

func TestEstimateSTEN1MatchesHandComputation(t *testing.T) {
	for _, tc := range []struct {
		name                     string
		tbl                      *cost.Table
		n                        int
		tcomp, burst, x, tc, tco float64
		charge                   string
	}{
		// Tcomp = 0.0003 · 5·1200 · 200 = 360 ms. The six-rank burst is
		// (-0.0055 + 0.00283·6)·4800 + 1.1·6 = 61.704 ms. The measured
		// stagger at p = 6 is 0.33 + 0.345·6 + 4800·(0.0004811 +
		// 0.0008914·6) = 30.3816 ms, and the cycle is max(61.704, 360 +
		// 30.3816) = 390.3816 ms.
		{name: "measured", tbl: measuredPaperTable(), n: 1200, tcomp: 360, burst: 61.704, x: 30.3816, tc: 390.3816, tco: 30.3816, charge: ChargeStagger},
		// The paper's table has no stagger: one rank's own exchange is
		// Eq. 1 at two stations, (-0.0055 + 0.00283·2)·4800 + 1.1·2 =
		// 2.968 ms, charged twice, and the cycle is max(61.704, 360 +
		// 5.936) = 365.936 ms.
		{name: "paper", tbl: cost.PaperTable(), n: 1200, tcomp: 360, burst: 61.704, x: 5.936, tc: 365.936, tco: 5.936, charge: ChargeTwoOwn},
		// At N = 60 the channel is the bottleneck: Tcomp = 0.9 ms, the burst
		// (-0.0055 + 0.00283·6)·240 + 6.6 = 9.3552 ms outweighs 0.9 +
		// 0.33 + 2.07 + 240·0.0058295 = 4.69908 ms, so the cycle is the
		// burst and T_comm is what it charges beyond T_comp.
		{name: "measured", tbl: measuredPaperTable(), n: 60, tcomp: 0.9, burst: 9.3552, x: 3.79908, tc: 9.3552, tco: 8.4552, charge: ChargeStagger},
	} {
		e, err := NewEstimator(model.PaperTestbed(), tc.tbl, stencilAnnotations(tc.n, false))
		if err != nil {
			t.Fatal(err)
		}
		est, err := e.Estimate(cost.Config{
			Clusters: []string{model.Sparc2Cluster, model.IPCCluster},
			Counts:   []int{6, 0},
		})
		if err != nil {
			t.Fatal(err)
		}
		burst, x, charge, err := e.eval.commCost(est.BytesPerMsg, 6)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			name      string
			got, want float64
		}{
			{"Tcomp", est.TcompMs, tc.tcomp}, {"burst", burst, tc.burst}, {"x", x, tc.x},
			{"Tcomm", est.TcommMs, tc.tco}, {"Tc", est.TcMs, tc.tc}, {"ElapsedMs(10)", est.ElapsedMs(10), 10 * tc.tc},
		} {
			if math.Abs(c.got-c.want) > 1e-9 {
				t.Errorf("%s N=%d: %s = %v, want %v", tc.name, tc.n, c.name, c.got, c.want)
			}
		}
		if charge != tc.charge || est.Charge != tc.charge {
			t.Errorf("%s N=%d: charge %q, Estimate's %q, want %q", tc.name, tc.n, charge, est.Charge, tc.charge)
		}
		if est.ToverlapMs != 0 {
			t.Errorf("N=%d: STEN-1 overlap = %v, want 0", tc.n, est.ToverlapMs)
		}
		if est.TcMs != est.TcompMs+est.TcommMs {
			t.Errorf("N=%d: Tc %v is not Tcomp + Tcomm = %v", tc.n, est.TcMs, est.TcompMs+est.TcommMs)
		}
		if want := 4 * float64(tc.n); est.BytesPerMsg != want {
			t.Errorf("N=%d: BytesPerMsg = %v, want %v", tc.n, est.BytesPerMsg, want)
		}
	}
}

// TestEstimateTwoRankLeapfrog pins the two-rank charges at N = 60 STEN-1
// (b = 240 bytes). Two ranks of one cluster are charged the cluster's
// measured p = 2 line, and a pair across the router the pair's; a pair on
// one segment, and a table without the measurement, are charged 2·own.
func TestEstimateTwoRankLeapfrog(t *testing.T) {
	const b = 240
	tbl := cost.PaperTable()
	sparc, err := tbl.Comm(model.Sparc2Cluster, "1-D")
	if err != nil {
		t.Fatal(err)
	}
	ipc, err := tbl.Comm(model.IPCCluster, "1-D")
	if err != nil {
		t.Fatal(err)
	}
	// For the pair across the router, own is the worse cluster's Eq. 1(b,
	// 2) plus the router, and so is the burst (the router one more
	// station on each side).
	pen := tbl.Router(model.Sparc2Cluster, model.IPCCluster).Eval(b)
	crossOwn := max(sparc.Eval(b, 2)+pen, ipc.Eval(b, 2)+pen)
	for _, tc := range []struct {
		name         string
		tbl          *cost.Table
		oneSegment   bool // the IPC cluster moved onto sparc2's segment
		counts       []int
		tcomp, tcomm float64
		charge       string
		exactTc      float64 // when non-zero, T_c must equal it bit for bit
	}{
		// Tcomp = 0.0003·300·30 = 2.7 ms. The burst is Eq. 1(240, 2) = 2.2 +
		// 240·0.00016 = 2.2384 ms, and sparc2's p = 2 line 0.705 +
		// 240·0.001556 = 1.07844 ms: T_c = max(2.2384, 2.7 + 1.07844).
		{name: "2+0 one segment", tbl: measuredPaperTable(), counts: []int{2, 0}, tcomp: 2.7, tcomm: 1.07844, charge: ChargeStagger},
		// Eq. 3 gives sparc2 40 rows and the IPC 20: Tcomp = 0.0003·300·40
		// = 3.6 ms. The pair's line is 2 + 240·0.00457 = 3.0968 ms, and
		// T_c = max(3.1856, 3.6 + 3.0968) = 6.6968 ms.
		{name: "1+1 across the router", tbl: measuredPaperTable(), counts: []int{1, 1}, tcomp: 3.6, tcomm: 3.0968, charge: ChargePair},
		// Unmeasured, the pair is charged 2·own: the IPC's Eq. 1(240, 2) =
		// 3.8 − 240·0.00316 = 3.0416 plus the router 0.144, twice.
		{name: "1+1 across the router, paper table", tbl: tbl, counts: []int{1, 1}, tcomp: 3.6, tcomm: 6.3712,
			charge: ChargeTwoOwn, exactTc: max(crossOwn, 3.6+2*crossOwn)},
		// The same pair on one segment pays no router, and the table
		// measures no pair on one segment: 2·3.0416 = 6.0832 ms.
		{name: "1+1 one segment", tbl: measuredPaperTable(), oneSegment: true, counts: []int{1, 1}, tcomp: 3.6, tcomm: 6.0832, charge: ChargeTwoOwn},
	} {
		e, err := NewEstimator(model.PaperTestbed(), tc.tbl, stencilAnnotations(60, false))
		if err != nil {
			t.Fatal(err)
		}
		if tc.oneSegment {
			// Validate keeps each cluster on a segment of its own, so the
			// pair is made after the estimator is: the rule reads the
			// clusters' segments, not only the border between them.
			e.Net.Cluster(model.IPCCluster).Segment = e.Net.Cluster(model.Sparc2Cluster).Segment
		}
		est, err := e.Estimate(cost.Config{Clusters: []string{model.Sparc2Cluster, model.IPCCluster}, Counts: tc.counts})
		if err != nil {
			t.Fatal(err)
		}
		if est.BytesPerMsg != b {
			t.Fatalf("%s: BytesPerMsg = %v, want %v", tc.name, est.BytesPerMsg, b)
		}
		if est.Charge != tc.charge {
			t.Errorf("%s: charge %q, want %q", tc.name, est.Charge, tc.charge)
		}
		for _, c := range []struct {
			name      string
			got, want float64
		}{
			{"Tcomp", est.TcompMs, tc.tcomp}, {"Tcomm", est.TcommMs, tc.tcomm}, {"Tc", est.TcMs, tc.tcomp + tc.tcomm},
		} {
			if math.Abs(c.got-c.want) > 1e-9 {
				t.Errorf("%s: %s = %v, want %v", tc.name, c.name, c.got, c.want)
			}
		}
		if tc.exactTc != 0 && est.TcMs != tc.exactTc {
			t.Errorf("%s: Tc = %v, want %v bit for bit", tc.name, est.TcMs, tc.exactTc)
		}
	}
}

func TestEstimateSTEN2OverlapIsMax(t *testing.T) {
	e := paperEstimator(t, 1200, true)
	est, err := e.Estimate(cost.Config{
		Clusters: []string{model.Sparc2Cluster, model.IPCCluster},
		Counts:   []int{6, 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Tc = Tcomp + Tcomm - min(Tcomp, Tcomm) = max(Tcomp, Tcomm) = 360.
	if math.Abs(est.TcMs-360) > 1e-9 {
		t.Errorf("STEN-2 Tc = %v, want 360", est.TcMs)
	}
	if math.Abs(est.ToverlapMs-61.704) > 1e-9 {
		t.Errorf("Toverlap = %v, want 61.704", est.ToverlapMs)
	}
}

func TestEstimateSingleProcessorHasNoComm(t *testing.T) {
	e := paperEstimator(t, 60, false)
	est, err := e.Estimate(cost.Config{
		Clusters: []string{model.Sparc2Cluster, model.IPCCluster},
		Counts:   []int{1, 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if est.TcommMs != 0 {
		t.Errorf("single-task Tcomm = %v, want 0", est.TcommMs)
	}
	// Tcomp = 0.0003 · 300 · 60 = 5.4 ms.
	if math.Abs(est.TcMs-5.4) > 1e-9 {
		t.Errorf("Tc = %v, want 5.4", est.TcMs)
	}
}

func TestEstimateCountsEvaluations(t *testing.T) {
	e := paperEstimator(t, 600, false)
	cfg := cost.Config{Clusters: []string{model.Sparc2Cluster, model.IPCCluster}, Counts: []int{3, 0}}
	for i := 0; i < 5; i++ {
		if _, err := e.Estimate(cfg); err != nil {
			t.Fatal(err)
		}
	}
	if e.Evaluations() != 5 {
		t.Errorf("Evaluations = %d, want 5", e.Evaluations())
	}
	e.ResetEvaluations()
	if e.Evaluations() != 0 {
		t.Error("ResetEvaluations did not reset")
	}
}

// expected partitioning outcomes computed from the paper's published
// constants under the Section 3.0 composition (router as extra station).
// See EXPERIMENTS.md for the comparison against the paper's Table 1,
// including the rows where the paper is internally inconsistent.
//
// STEN-1 cycles are staggered: T_c = max(burst, Tcomp + 2·own), the
// paper's table having no measured stagger. In ms:
//   - N=60: 1+0 is 5.4; 2+0 is 2.7 + 2·2.2384 = 7.18 (own is Eq. 1(b,
//     2) = 2.2384), 3+0 1.8 + 2·2.2384 = 6.28, 4+0 the burst 5.80. One
//     processor, as in the paper's Table 1.
//   - N=300: from 6+2 to 6+4 the cycle is the crossing burst, 25.592 ms
//     ((-0.0055 + 0.00283·7)·1200 + 1.1·7 + 0.0006·1200, the router one
//     more station), below 6+0's 22.5 + 2·2.392 = 27.28; the smallest
//     count on the plateau wins.
//   - N=600: 6+6 is 60 + 2·5.224 = 70.45 against the burst 62.0, and
//     every smaller configuration pays more T_comp (6+5: 73.98).
//   - N=1200: 6+6 is 240 + 2·14.248 = 268.50, 6+5 254.12 + 28.50 = 282.61.
var partitionCases = []struct {
	n       int
	overlap bool
	p1, p2  int
}{
	{60, false, 1, 0},
	{300, false, 6, 2},
	{600, false, 6, 6},
	{1200, false, 6, 6},
	{60, true, 2, 0},
	{300, true, 6, 0},
	{600, true, 6, 6},
	{1200, true, 6, 6},
}

func TestPartitionStencilChoices(t *testing.T) {
	for _, tc := range partitionCases {
		e := paperEstimator(t, tc.n, tc.overlap)
		res, err := Partition(e)
		if err != nil {
			t.Fatalf("N=%d overlap=%v: %v", tc.n, tc.overlap, err)
		}
		if res.Config.Counts[0] != tc.p1 || res.Config.Counts[1] != tc.p2 {
			t.Errorf("N=%d overlap=%v: chose (%d,%d), want (%d,%d)",
				tc.n, tc.overlap, res.Config.Counts[0], res.Config.Counts[1], tc.p1, tc.p2)
		}
		if res.Vector.Sum() != tc.n {
			t.Errorf("N=%d: vector sums to %d", tc.n, res.Vector.Sum())
		}
		if len(res.Vector) != tc.p1+tc.p2 {
			t.Errorf("N=%d: vector has %d entries, want %d", tc.n, len(res.Vector), tc.p1+tc.p2)
		}
	}
}

func TestPartitionMatchesLinearScan(t *testing.T) {
	// Bisection must find the same minimum as a full scan (ablation A2),
	// with no more evaluations, also where the STEN-1 stagger makes T_c
	// non-unimodal at totals of one and two.
	for _, tc := range partitionCases {
		e := paperEstimator(t, tc.n, tc.overlap)
		fast, err := Partition(e)
		if err != nil {
			t.Fatal(err)
		}
		e2 := paperEstimator(t, tc.n, tc.overlap)
		slow, err := PartitionLinear(e2)
		if err != nil {
			t.Fatal(err)
		}
		if fast.TcMs != slow.TcMs {
			t.Errorf("N=%d overlap=%v: bisect Tc %v vs scan Tc %v (configs %v vs %v)",
				tc.n, tc.overlap, fast.TcMs, slow.TcMs, fast.Config, slow.Config)
		}
		if fast.Evaluations > slow.Evaluations {
			t.Errorf("N=%d: bisect used %d evaluations, scan %d", tc.n, fast.Evaluations, slow.Evaluations)
		}
	}
}

func TestPartitionOverheadIsLogarithmic(t *testing.T) {
	// Section 6.0: for K=2 clusters and P=12 processors the equations are
	// recomputed O(K·log2 P) ≈ 6 times. Our slope-bisection uses at most
	// two evaluations per halving: allow 2·K·(log2(P/K)+2).
	e := paperEstimator(t, 1200, false)
	res, err := Partition(e)
	if err != nil {
		t.Fatal(err)
	}
	bound := 2 * 2 * (int(math.Log2(6)) + 3)
	if res.Evaluations > bound {
		t.Errorf("evaluations = %d, want ≤ %d", res.Evaluations, bound)
	}
}

func TestPartitionExhaustiveNeverWorse(t *testing.T) {
	for _, tc := range partitionCases {
		e := paperEstimator(t, tc.n, tc.overlap)
		heur, err := Partition(e)
		if err != nil {
			t.Fatal(err)
		}
		e2 := paperEstimator(t, tc.n, tc.overlap)
		oracle, err := PartitionExhaustive(e2)
		if err != nil {
			t.Fatal(err)
		}
		if oracle.TcMs > heur.TcMs+1e-9 {
			t.Errorf("N=%d overlap=%v: oracle Tc %v worse than heuristic %v",
				tc.n, tc.overlap, oracle.TcMs, heur.TcMs)
		}
		if oracle.Evaluations <= heur.Evaluations {
			t.Errorf("oracle should cost more evaluations: %d vs %d",
				oracle.Evaluations, heur.Evaluations)
		}
	}
}

func TestPartitionUsesIPCsOnlyWhenSparc2Exhausted(t *testing.T) {
	// The locality-first rule: any configuration with P2 > 0 must have
	// P1 = 6 (the paper's observed behavior).
	for _, tc := range partitionCases {
		e := paperEstimator(t, tc.n, tc.overlap)
		res, err := Partition(e)
		if err != nil {
			t.Fatal(err)
		}
		if res.Config.Counts[1] > 0 && res.Config.Counts[0] != 6 {
			t.Errorf("N=%d: IPCs used with only %d Sparc2s", tc.n, res.Config.Counts[0])
		}
	}
}

func TestPartitionRespectsAvailability(t *testing.T) {
	net := model.PaperTestbed()
	net.Cluster(model.Sparc2Cluster).Available = 3
	e, err := NewEstimator(net, cost.PaperTable(), stencilAnnotations(1200, false))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Partition(e)
	if err != nil {
		t.Fatal(err)
	}
	if res.Config.Counts[0] > 3 {
		t.Errorf("used %d Sparc2s with only 3 available", res.Config.Counts[0])
	}
}

func TestPartitionNeverExceedsPDUs(t *testing.T) {
	// N=8 PDUs on 12 processors: the configuration must stay ≤ 8 tasks.
	e := paperEstimator(t, 8, false)
	res, err := Partition(e)
	if err != nil {
		t.Fatal(err)
	}
	if res.Config.Total() > 8 {
		t.Errorf("config %v exceeds 8 PDUs", res.Config)
	}
	if res.Vector.Sum() != 8 {
		t.Errorf("vector sums to %d, want 8", res.Vector.Sum())
	}
}

func TestEstimatorRejectsInvalidInputs(t *testing.T) {
	if _, err := NewEstimator(model.PaperTestbed(), cost.PaperTable(), &Annotations{}); err == nil {
		t.Error("invalid annotations should be rejected")
	}
	if _, err := NewEstimator(&model.Network{}, cost.PaperTable(), stencilAnnotations(60, false)); err == nil {
		t.Error("invalid network should be rejected")
	}
}

func TestPartitionGlobalMatchesOracle(t *testing.T) {
	// The general algorithm must find the exhaustive oracle's optimum on
	// every instance, including the multimodal N=300 curves where the
	// locality-first heuristic is suboptimal.
	for _, tc := range partitionCases {
		eg := paperEstimator(t, tc.n, tc.overlap)
		global, err := PartitionGlobal(eg)
		if err != nil {
			t.Fatalf("N=%d overlap=%v: %v", tc.n, tc.overlap, err)
		}
		eo := paperEstimator(t, tc.n, tc.overlap)
		oracle, err := PartitionExhaustive(eo)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(global.TcMs-oracle.TcMs) > 1e-9 {
			t.Errorf("N=%d overlap=%v: global Tc %v (%v) vs oracle %v (%v)",
				tc.n, tc.overlap, global.TcMs, global.Config, oracle.TcMs, oracle.Config)
		}
		if global.Vector.Sum() != tc.n {
			t.Errorf("N=%d: vector sums to %d", tc.n, global.Vector.Sum())
		}
	}
}

func TestPartitionGlobalImprovesOnHeuristicWhenMultimodal(t *testing.T) {
	// N=300 STEN-2: the heuristic stops at (6,0) Tc=22.5; the oracle's
	// optimum is (5,3) Tc=21.096. The general algorithm must find it.
	e := paperEstimator(t, 300, true)
	heur, err := Partition(e)
	if err != nil {
		t.Fatal(err)
	}
	eg := paperEstimator(t, 300, true)
	global, err := PartitionGlobal(eg)
	if err != nil {
		t.Fatal(err)
	}
	if global.TcMs >= heur.TcMs {
		t.Errorf("global %v (%v) did not improve on heuristic %v (%v)",
			global.TcMs, global.Config, heur.TcMs, heur.Config)
	}
	// And at far fewer evaluations than the 49-point oracle would need...
	eo := paperEstimator(t, 300, true)
	oracle, err := PartitionExhaustive(eo)
	if err != nil {
		t.Fatal(err)
	}
	if global.Evaluations >= oracle.Evaluations*2 {
		t.Errorf("global search cost %d evaluations vs oracle %d", global.Evaluations, oracle.Evaluations)
	}
}

// fourClusterSetup builds a synthetic 4-cluster network (6 processors
// each) with 1-D cost models scaled from the paper's constants.
func fourClusterSetup(t *testing.T, n int) *Estimator {
	t.Helper()
	net := &model.Network{
		Router: model.Router{Name: "r", PerByteMs: 0.0006,
			Segments: []string{"s1", "s2", "s3", "s4"}},
	}
	tbl := cost.NewTable()
	speeds := []float64{0.0002, 0.0003, 0.0005, 0.0008}
	for i, s := range speeds {
		name := string(rune('a' + i))
		seg := "s" + string(rune('1'+i))
		net.Clusters = append(net.Clusters, &model.Cluster{
			Name: name, Procs: 6, Available: 6,
			FloatOpTime: s, IntOpTime: s, Segment: seg,
			MsgOverheadMs: 0.5 + 0.2*float64(i), HostPerByteMs: 0.0005 + 0.0003*float64(i),
		})
		net.Segments = append(net.Segments, &model.Segment{Name: seg, BytesPerMs: 1250})
		tbl.SetComm(name, "1-D", cost.Params{
			C2: 1.0 + 0.4*float64(i), C4: 0.0025 + 0.001*float64(i),
		})
		for j := 0; j < i; j++ {
			tbl.SetRouter(name, string(rune('a'+j)), cost.PerByte{Ms: 0.0006})
		}
	}
	if err := net.Validate(); err != nil {
		t.Fatal(err)
	}
	e, err := NewEstimator(net, tbl, stencilAnnotations(n, false))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestPartitionGlobalScalesPolynomially(t *testing.T) {
	// Four clusters of six: the full lattice has 7^4 = 2401 points. The
	// pairwise-sweep search must match the oracle's optimum at a fraction
	// of its evaluations.
	e := fourClusterSetup(t, 900)
	global, err := PartitionGlobal(e)
	if err != nil {
		t.Fatal(err)
	}
	eo := fourClusterSetup(t, 900)
	oracle, err := PartitionExhaustive(eo)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(global.TcMs-oracle.TcMs) > 1e-9 {
		t.Errorf("global Tc %v (%v) vs oracle %v (%v)",
			global.TcMs, global.Config, oracle.TcMs, oracle.Config)
	}
	if global.Evaluations*2 > oracle.Evaluations {
		t.Errorf("global used %d evaluations vs oracle %d; expected < half",
			global.Evaluations, oracle.Evaluations)
	}
}

func TestPartitionGlobalSingleCluster(t *testing.T) {
	net := &model.Network{
		Clusters: []*model.Cluster{{
			Name: "only", Procs: 6, Available: 6,
			FloatOpTime: 0.0003, IntOpTime: 0.0003, Segment: "s1",
			MsgOverheadMs: 0.55, HostPerByteMs: 0.000615,
		}},
		Segments: []*model.Segment{{Name: "s1", BytesPerMs: 1250}},
	}
	tbl := cost.NewTable()
	tbl.SetComm("only", "1-D", cost.Params{C2: 1.1, C3: -0.0055, C4: 0.00283})
	e, err := NewEstimator(net, tbl, stencilAnnotations(60, false))
	if err != nil {
		t.Fatal(err)
	}
	res, err := PartitionGlobal(e)
	if err != nil {
		t.Fatal(err)
	}
	// b = 240 bytes, T_comp = 5.4/p ms. The table carries no stagger, so a
	// staggered cycle is charged 2·own: 2+0 costs max(2.24, 2.7 + 2·2.24) =
	// 7.18 ms against 1+0's 5.4 ms, 3+0 costs 1.8 + 2·2.24 = 6.28 ms, and
	// from 4 on the burst alone (5.80 ms at p = 4) exceeds 5.4 ms.
	if res.Config.Counts[0] != 1 {
		t.Errorf("single-cluster global chose %v, want 1", res.Config)
	}
	oracle, err := PartitionExhaustive(e.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if res.Config.Counts[0] != oracle.Config.Counts[0] {
		t.Errorf("single-cluster global chose %v, the exhaustive search %v", res.Config, oracle.Config)
	}
}

func TestStartupEstimate(t *testing.T) {
	ann := stencilAnnotations(1200, false)
	ann.StartupBytesPerPDU = 4 * 1200
	e, err := NewEstimator(model.PaperTestbed(), cost.PaperTable(), ann)
	if err != nil {
		t.Fatal(err)
	}
	// Single processor: no scatter.
	single, err := e.Estimate(cost.Config{
		Clusters: []string{model.Sparc2Cluster, model.IPCCluster}, Counts: []int{1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if single.StartupMs != 0 {
		t.Errorf("single-task startup = %v", single.StartupMs)
	}
	// Full network: scatter to 11 tasks, cross-router for the 6 IPCs.
	full, err := e.Estimate(cost.Config{
		Clusters: []string{model.Sparc2Cluster, model.IPCCluster}, Counts: []int{6, 6}})
	if err != nil {
		t.Fatal(err)
	}
	if full.StartupMs <= 0 {
		t.Fatalf("startup = %v", full.StartupMs)
	}
	// The paper's "sufficient granularity" assumption quantified: at the
	// paper's 10 iterations the scatter is NOT amortized (it exceeds the
	// run), but a realistic iteration count absorbs it easily.
	if full.StartupMs <= 0.25*full.ElapsedMs(10) {
		t.Errorf("10 iterations should NOT amortize a %v ms scatter (run %v ms)",
			full.StartupMs, full.ElapsedMs(10))
	}
	if full.StartupMs > 0.05*full.ElapsedMs(1000) {
		t.Errorf("1000 iterations should amortize %v ms (run %v ms)",
			full.StartupMs, full.ElapsedMs(1000))
	}
	// Without the annotation the estimate reports zero.
	plain := paperEstimator(t, 1200, false)
	est, err := plain.Estimate(cost.Config{
		Clusters: []string{model.Sparc2Cluster, model.IPCCluster}, Counts: []int{6, 6}})
	if err != nil {
		t.Fatal(err)
	}
	if est.StartupMs != 0 {
		t.Errorf("undeclared startup = %v", est.StartupMs)
	}
}

// Property: with communication disabled (single-cluster, one task's worth
// of comm removed by using a huge problem at p=1 vs p=2k), Tcomp scales
// inversely with the processor count and linearly with the complexity.
func TestEstimateScalingLaws(t *testing.T) {
	e := paperEstimator(t, 1200, false)
	cfg := func(p1 int) cost.Config {
		return cost.Config{Clusters: []string{model.Sparc2Cluster, model.IPCCluster}, Counts: []int{p1, 0}}
	}
	e1, err := e.Estimate(cfg(1))
	if err != nil {
		t.Fatal(err)
	}
	e2, err := e.Estimate(cfg(2))
	if err != nil {
		t.Fatal(err)
	}
	e4, err := e.Estimate(cfg(4))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e1.TcompMs/2-e2.TcompMs) > 1e-9 || math.Abs(e2.TcompMs/2-e4.TcompMs) > 1e-9 {
		t.Errorf("Tcomp not inverse in p: %v %v %v", e1.TcompMs, e2.TcompMs, e4.TcompMs)
	}
	// Doubling the per-PDU complexity doubles Tcomp.
	ann := stencilAnnotations(1200, false)
	base := ann.Compute[0].ComplexityPerPDU
	ann.Compute[0].ComplexityPerPDU = func() float64 { return 2 * base() }
	e2x, err := NewEstimator(model.PaperTestbed(), cost.PaperTable(), ann)
	if err != nil {
		t.Fatal(err)
	}
	d, err := e2x.Estimate(cfg(4))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d.TcompMs-2*e4.TcompMs) > 1e-9 {
		t.Errorf("Tcomp not linear in complexity: %v vs %v", d.TcompMs, 2*e4.TcompMs)
	}
}

// Property: faster processors strictly reduce Tcomp for the same
// configuration shape.
func TestEstimateFasterClusterHelps(t *testing.T) {
	fast := model.PaperTestbed()
	fast.Cluster(model.Sparc2Cluster).FloatOpTime = 0.0001
	eFast, err := NewEstimator(fast, cost.PaperTable(), stencilAnnotations(600, false))
	if err != nil {
		t.Fatal(err)
	}
	eSlow := paperEstimator(t, 600, false)
	cfg := cost.Config{Clusters: []string{model.Sparc2Cluster, model.IPCCluster}, Counts: []int{4, 0}}
	a, err := eFast.Estimate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := eSlow.Estimate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.TcompMs >= b.TcompMs {
		t.Errorf("faster cluster did not reduce Tcomp: %v vs %v", a.TcompMs, b.TcompMs)
	}
}

func TestStartupWithoutCommPhases(t *testing.T) {
	// Annotations may declare startup bytes without any communication
	// phase; the estimator must not crash and falls back to the 1-D model.
	ann := &Annotations{
		Name:    "compute-only",
		NumPDUs: func() int { return 100 },
		Compute: []ComputationPhase{{
			Name:             "work",
			ComplexityPerPDU: func() float64 { return 10 },
			Class:            model.OpFloat,
		}},
		StartupBytesPerPDU: 100,
	}
	e, err := NewEstimator(model.PaperTestbed(), cost.PaperTable(), ann)
	if err != nil {
		t.Fatal(err)
	}
	est, err := e.Estimate(cost.Config{
		Clusters: []string{model.Sparc2Cluster, model.IPCCluster}, Counts: []int{4, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if est.StartupMs <= 0 {
		t.Errorf("startup = %v", est.StartupMs)
	}
	if est.TcommMs != 0 {
		t.Errorf("Tcomm = %v for a compute-only program", est.TcommMs)
	}
}
