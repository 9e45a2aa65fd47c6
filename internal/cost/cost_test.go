package cost

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"netpart/internal/model"
	"netpart/internal/topo"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestParamsEval(t *testing.T) {
	p := Params{C1: 1, C2: 2, C3: 0.1, C4: 0.01}
	// 1 + 2·3 + 100·(0.1 + 0.01·3) = 7 + 13 = 20
	if got := p.Eval(100, 3); !almostEqual(got, 20, 1e-12) {
		t.Errorf("Eval = %v, want 20", got)
	}
}

func TestParamsEvalAbsGuard(t *testing.T) {
	// The paper's C2/IPC fit goes negative for P2=2 at small b; Section 6.0
	// takes the absolute value.
	p := Params{C1: 0, C2: 0, C3: -0.0123, C4: 0.00457}
	got := p.Eval(100, 2)
	raw := 100 * (-0.0123 + 0.00457*2)
	if raw >= 0 {
		t.Fatalf("test premise broken: raw = %v", raw)
	}
	if !almostEqual(got, -raw, 1e-12) {
		t.Errorf("Eval = %v, want |%v|", got, raw)
	}
}

func TestParamsString(t *testing.T) {
	s := Params{C1: 1, C2: 2, C3: 3, C4: 4}.String()
	if !strings.Contains(s, "p") || !strings.Contains(s, "b") {
		t.Errorf("String() = %q", s)
	}
}

func TestPerByteEval(t *testing.T) {
	p := PerByte{Ms: 0.0006, FixedMs: 0.5}
	if got := p.Eval(1000); !almostEqual(got, 1.1, 1e-12) {
		t.Errorf("Eval = %v, want 1.1", got)
	}
}

func TestTableSetGet(t *testing.T) {
	tbl := NewTable()
	want := Params{C1: 1}
	tbl.SetComm("sparc2", "1-D", want)
	got, err := tbl.Comm("sparc2", "1-D")
	if err != nil || got != want {
		t.Errorf("Comm = %v, %v", got, err)
	}
	if _, err := tbl.Comm("sparc2", "ring"); err == nil {
		t.Error("missing topology should error")
	}
	if _, err := tbl.Comm("nope", "1-D"); err == nil {
		t.Error("missing cluster should error")
	}
	tbl.SetRouter("a", "b", PerByte{Ms: 2})
	if tbl.Router("b", "a").Ms != 2 {
		t.Error("router lookup must be order independent")
	}
	if tbl.Router("a", "c").Ms != 0 {
		t.Error("unset router should be zero")
	}
	tbl.SetCoerce("b", "a", PerByte{Ms: 3})
	if tbl.Coerce("a", "b").Ms != 3 {
		t.Error("coerce lookup must be order independent")
	}
}

func TestConfigHelpers(t *testing.T) {
	cfg := Config{Clusters: []string{"a", "b", "c"}, Counts: []int{2, 0, 3}}
	if cfg.Total() != 5 {
		t.Errorf("Total = %d", cfg.Total())
	}
	names, counts := cfg.Active()
	if len(names) != 2 || names[0] != "a" || names[1] != "c" || counts[1] != 3 {
		t.Errorf("Active = %v %v", names, counts)
	}
	if s := cfg.String(); !strings.Contains(s, "a:2") || !strings.Contains(s, "b:0") {
		t.Errorf("String = %q", s)
	}
}

func TestCommCostSingleCluster(t *testing.T) {
	net := model.PaperTestbed()
	tbl := PaperTable()
	// 6 Sparc2s, N=1200 → b=4800:
	// (-0.0055 + 0.00283·6)·4800 + 1.1·6 = 55.104 + 6.6 = 61.704
	got, err := tbl.CommCost(net, topo.OneD{}, 4800, Config{
		Clusters: []string{model.Sparc2Cluster, model.IPCCluster},
		Counts:   []int{6, 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(got, 61.704, 1e-9) {
		t.Errorf("CommCost = %v, want 61.704", got)
	}
}

func TestCommCostSingleTaskIsFree(t *testing.T) {
	net := model.PaperTestbed()
	tbl := PaperTable()
	got, err := tbl.CommCost(net, topo.OneD{}, 4800, Config{
		Clusters: []string{model.Sparc2Cluster},
		Counts:   []int{1},
	})
	if err != nil || got != 0 {
		t.Errorf("single task CommCost = %v, %v; want 0", got, err)
	}
	got, err = tbl.CommCost(net, topo.OneD{}, 4800, Config{
		Clusters: []string{model.Sparc2Cluster},
		Counts:   []int{0},
	})
	if err != nil || got != 0 {
		t.Errorf("empty config CommCost = %v, %v; want 0", got, err)
	}
}

func TestCommCostCrossCluster(t *testing.T) {
	net := model.PaperTestbed()
	tbl := PaperTable()
	b := 4800.0
	got, err := tbl.CommCost(net, topo.OneD{}, b, Config{
		Clusters: []string{model.Sparc2Cluster, model.IPCCluster},
		Counts:   []int{6, 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Paper composition: max over clusters at p+1 stations, plus router.
	c1 := Params{C2: 1.1, C3: -0.0055, C4: 0.00283}.Eval(b, 7) + 0.0006*b
	c2 := Params{C2: 1.9, C3: -0.0123, C4: 0.00457}.Eval(b, 7) + 0.0006*b
	want := math.Max(c1, c2)
	if !almostEqual(got, want, 1e-9) {
		t.Errorf("CommCost = %v, want %v", got, want)
	}
	// The IPC cluster must dominate (slower comm).
	if !almostEqual(got, c2, 1e-9) {
		t.Errorf("IPC should dominate: got %v, ipc %v", got, c2)
	}
}

func TestCommCostCrossClusterExceedsLocal(t *testing.T) {
	net := model.PaperTestbed()
	tbl := PaperTable()
	b := 2400.0
	local, err := tbl.CommCost(net, topo.OneD{}, b, Config{
		Clusters: []string{model.Sparc2Cluster, model.IPCCluster}, Counts: []int{6, 0}})
	if err != nil {
		t.Fatal(err)
	}
	spanning, err := tbl.CommCost(net, topo.OneD{}, b, Config{
		Clusters: []string{model.Sparc2Cluster, model.IPCCluster}, Counts: []int{6, 6}})
	if err != nil {
		t.Fatal(err)
	}
	if spanning <= local {
		t.Errorf("spanning cost %v should exceed local cost %v", spanning, local)
	}
}

func TestCommCostBandwidthLimited(t *testing.T) {
	net := model.PaperTestbed()
	tbl := PaperTable()
	tbl.SetComm(model.Sparc2Cluster, "broadcast", Params{C2: 1, C4: 0.001})
	tbl.SetComm(model.IPCCluster, "broadcast", Params{C2: 1, C4: 0.001})
	b := 1000.0
	got, err := tbl.CommCost(net, topo.Broadcast{}, b, Config{
		Clusters: []string{model.Sparc2Cluster, model.IPCCluster},
		Counts:   []int{4, 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Bandwidth-limited: each cluster is charged at total procs (8) + 1
	// router station, plus the router per-byte penalty.
	want := Params{C2: 1, C4: 0.001}.Eval(b, 9) + 0.0006*b
	if !almostEqual(got, want, 1e-9) {
		t.Errorf("broadcast CommCost = %v, want %v", got, want)
	}
}

func TestCommCostCoercion(t *testing.T) {
	net := model.Figure1Network()
	tbl := NewTable()
	for _, c := range []string{"sun4", "hp", "rs6000"} {
		tbl.SetComm(c, "1-D", Params{C2: 1, C4: 0.001})
	}
	tbl.SetRouter("sun4", "rs6000", PerByte{Ms: 0.0006})
	tbl.SetCoerce("sun4", "rs6000", PerByte{Ms: 0.0004})
	b := 1000.0
	got, err := tbl.CommCost(net, topo.OneD{}, b, Config{
		Clusters: []string{"sun4", "rs6000"},
		Counts:   []int{2, 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Formats differ → router + coercion, both clusters symmetric here.
	want := Params{C2: 1, C4: 0.001}.Eval(b, 3) + 0.0006*b + 0.0004*b
	if !almostEqual(got, want, 1e-9) {
		t.Errorf("CommCost = %v, want %v", got, want)
	}
}

func TestCommCostMissingModel(t *testing.T) {
	net := model.PaperTestbed()
	tbl := NewTable()
	_, err := tbl.CommCost(net, topo.OneD{}, 100, Config{
		Clusters: []string{model.Sparc2Cluster}, Counts: []int{4}})
	if err == nil {
		t.Error("missing model should error")
	}
}

func TestCommCostNilNetwork(t *testing.T) {
	tbl := PaperTable()
	if _, err := tbl.CommCost(nil, topo.OneD{}, 100, Config{}); err == nil {
		t.Error("nil network should error")
	}
}

func TestFitRecoversKnownConstants(t *testing.T) {
	truth := Params{C1: 0.4, C2: 1.1, C3: -0.0055, C4: 0.00283}
	var obs []Observation
	for p := 2; p <= 8; p++ {
		for _, b := range []float64{240, 1200, 2400, 4800} {
			obs = append(obs, Observation{
				B: b, P: p,
				Ms: truth.C1 + truth.C2*float64(p) + b*(truth.C3+truth.C4*float64(p)),
			})
		}
	}
	got, err := Fit(obs)
	if err != nil {
		t.Fatal(err)
	}
	for i, pair := range [][2]float64{
		{got.C1, truth.C1}, {got.C2, truth.C2}, {got.C3, truth.C3}, {got.C4, truth.C4},
	} {
		if !almostEqual(pair[0], pair[1], 1e-6) {
			t.Errorf("constant %d: got %v, want %v", i+1, pair[0], pair[1])
		}
	}
	q := Quality(got, obs)
	if q.RMSE > 1e-6 || q.R2 < 0.999999 {
		t.Errorf("perfect data should fit perfectly: %+v", q)
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit(nil); err == nil {
		t.Error("empty fit should error")
	}
	// All observations at the same (b, p): singular.
	same := []Observation{{B: 100, P: 2, Ms: 1}, {B: 100, P: 2, Ms: 1.1},
		{B: 100, P: 2, Ms: 0.9}, {B: 100, P: 2, Ms: 1}}
	if _, err := Fit(same); err == nil {
		t.Error("degenerate design should be singular")
	}
}

func TestFitPerByte(t *testing.T) {
	obs := []Observation{{B: 100, Ms: 0.56}, {B: 1000, Ms: 1.1}, {B: 4800, Ms: 3.38}}
	got, err := FitPerByte(obs)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(got.Ms, 0.0006, 1e-9) || !almostEqual(got.FixedMs, 0.5, 1e-9) {
		t.Errorf("FitPerByte = %+v, want slope 0.0006 fixed 0.5", got)
	}
	if _, err := FitPerByte(obs[:1]); err == nil {
		t.Error("single observation should error")
	}
	if _, err := FitPerByte([]Observation{{B: 5, Ms: 1}, {B: 5, Ms: 2}}); err == nil {
		t.Error("constant b should be singular")
	}
}

// Property: Fit recovers arbitrary (bounded) constants from noiseless data
// over a (b, p) grid.
func TestFitRecoveryProperty(t *testing.T) {
	f := func(c1, c2, c3, c4 int16) bool {
		truth := Params{
			C1: float64(c1) / 1000, C2: float64(c2) / 1000,
			C3: float64(c3) / 1e6, C4: float64(c4) / 1e6,
		}
		var obs []Observation
		for p := 1; p <= 6; p++ {
			for _, b := range []float64{64, 512, 2048} {
				obs = append(obs, Observation{B: b, P: p,
					Ms: truth.C1 + truth.C2*float64(p) + b*(truth.C3+truth.C4*float64(p))})
			}
		}
		got, err := Fit(obs)
		if err != nil {
			return false
		}
		tol := 1e-6
		return almostEqual(got.C1, truth.C1, tol) && almostEqual(got.C2, truth.C2, tol) &&
			almostEqual(got.C3, truth.C3, tol) && almostEqual(got.C4, truth.C4, tol)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: CommCost is monotone non-decreasing in message size for the
// paper's table (costs are |linear| with positive slope in the measured
// region).
func TestCommCostMonotoneInB(t *testing.T) {
	net := model.PaperTestbed()
	tbl := PaperTable()
	cfg := Config{Clusters: []string{model.Sparc2Cluster, model.IPCCluster}, Counts: []int{6, 6}}
	prev := -1.0
	for b := 240.0; b <= 4800; b += 240 {
		got, err := tbl.CommCost(net, topo.OneD{}, b, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got < prev {
			t.Errorf("CommCost decreased at b=%v: %v < %v", b, got, prev)
		}
		prev = got
	}
}

func TestTableRoundTrip(t *testing.T) {
	orig := PaperTable()
	orig.SetCoerce("a", "b", PerByte{Ms: 0.0004, FixedMs: 0.1})
	var buf bytes.Buffer
	if err := WriteTable(&buf, orig); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTable(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []string{model.Sparc2Cluster, model.IPCCluster} {
		want, err1 := orig.Comm(c, "1-D")
		have, err2 := got.Comm(c, "1-D")
		if err1 != nil || err2 != nil || want != have {
			t.Errorf("%s round trip: %+v vs %+v (%v %v)", c, want, have, err1, err2)
		}
	}
	if got.Router(model.IPCCluster, model.Sparc2Cluster) != orig.Router(model.Sparc2Cluster, model.IPCCluster) {
		t.Error("router entry lost")
	}
	if got.Coerce("b", "a").FixedMs != 0.1 {
		t.Error("coerce entry lost")
	}
}

// TestStaggerRoundTrip: a cluster's stagger and a pair's survive
// WriteTable and ReadTable bit for bit (the pair in either order), and a
// table written without them reads back without them.
func TestStaggerRoundTrip(t *testing.T) {
	orig := PaperTable()
	st := Stagger{Two: PerByte{FixedMs: 0.705, Ms: 0.001556}, Many: Params{C1: 0.33, C2: 0.345, C3: 0.0004811, C4: 0.0008914}}
	pair := PerByte{FixedMs: 2, Ms: 0.00457}
	orig.SetStagger(model.Sparc2Cluster, st)
	orig.SetPairStagger(model.IPCCluster, model.Sparc2Cluster, pair)
	var buf bytes.Buffer
	if err := WriteTable(&buf, orig); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	got, err := ReadTable(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, have, _ := got.Model(model.Sparc2Cluster, "1-D"); have == nil || *have != st {
		t.Errorf("stagger round trip: %+v, want %+v", have, st)
	}
	if _, have, _ := got.Model(model.IPCCluster, "1-D"); have != nil {
		t.Error("ipc has a stagger it was never given")
	}
	if have := got.PairStagger(model.Sparc2Cluster, model.IPCCluster); have == nil || *have != pair {
		t.Errorf("pair stagger round trip: %+v, want %+v\n%s", have, pair, text)
	}
	buf.Reset()
	if err := WriteTable(&buf, PaperTable()); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "stagger") {
		t.Errorf("a table without stagger writes one:\n%s", buf.String())
	}
	plain, err := ReadTable(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, have, _ := plain.Model(model.Sparc2Cluster, "1-D"); have != nil || plain.PairStagger(model.Sparc2Cluster, model.IPCCluster) != nil {
		t.Error("a table read without stagger has one")
	}
	if x := st.Eval(4800, 2); x != 0.705+0.001556*4800 {
		t.Errorf("Eval(4800, 2) = %v, want the p = 2 line", x)
	}
	if x := st.Eval(4800, 6); x != st.Many.Eval(4800, 6) {
		t.Errorf("Eval(4800, 6) = %v, want Eq. 1", x)
	}
}

func TestReadTableRejectsInvalid(t *testing.T) {
	for name, in := range map[string]string{
		"garbage":       `nope`,
		"unknown field": `{"comm":[],"bogus":1}`,
		"empty cluster": `{"comm":[{"cluster":"","topology":"1-D"}]}`,
		"empty stagger": `{"comm":[],"stagger":[{"cluster":""}]}`,
	} {
		if _, err := ReadTable(strings.NewReader(in)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}
