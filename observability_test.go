package netpart_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"netpart"
)

// TestGoldenSearchTraceSten1 is the golden observability case: STEN-1 at
// N=600 on the paper testbed with the published cost constants. The
// recorded T_c(p) sequence must be unimodal per cluster (the Fig. 3 shape
// the bisection relies on), and the traced winner must match what
// Partition reports.
func TestGoldenSearchTraceSten1(t *testing.T) {
	const n, iters = 600, 10
	net := netpart.PaperTestbed()
	costs := netpart.PaperCostTable()
	ann := netpart.StencilAnnotations(n, netpart.STEN1, iters)

	est, err := netpart.NewEstimator(net, costs, ann)
	if err != nil {
		t.Fatal(err)
	}
	st := &netpart.SearchTrace{}
	est.Observer = st
	res, err := netpart.Partition(est)
	if err != nil {
		t.Fatal(err)
	}

	// The plain facade entry point must agree with the observed search.
	plain, err := netpart.Partition(newEstimator(t, net, costs, ann))
	if err != nil {
		t.Fatal(err)
	}
	if plain.Config.String() != res.Config.String() || plain.TcMs != res.TcMs {
		t.Errorf("observed search chose %v (%.3f ms), plain chose %v (%.3f ms)",
			res.Config, res.TcMs, plain.Config, plain.TcMs)
	}

	clusters := st.Clusters()
	if len(clusters) == 0 {
		t.Fatal("trace recorded no clusters")
	}
	for _, c := range clusters {
		curve := st.ClusterCurve(c)
		if len(curve) == 0 {
			t.Errorf("cluster %s: empty T_c(p) curve", c)
			continue
		}
		if !netpart.Unimodal(curve) {
			t.Errorf("cluster %s: T_c(p) curve not unimodal: %+v", c, curve)
		}
	}

	w, ok := st.Winner()
	if !ok {
		t.Fatal("trace recorded no winner")
	}
	if w.Config.String() != res.Config.String() {
		t.Errorf("traced winner %v != result %v", w.Config, res.Config)
	}
	if w.TcMs != res.TcMs {
		t.Errorf("traced winner T_c %.3f != result %.3f", w.TcMs, res.TcMs)
	}

	if expl := st.Explain(); !strings.Contains(expl, "winner") || !strings.Contains(expl, "T_comp") {
		t.Errorf("explain output missing winner breakdown:\n%s", expl)
	}
}

// TestFacadeTraceRecorderJSONL drives the JSONL pipeline through the
// facade: every observation streams as one JSON object per line.
func TestFacadeTraceRecorderJSONL(t *testing.T) {
	net := netpart.PaperTestbed()
	costs := netpart.PaperCostTable()
	ann := netpart.StencilAnnotations(300, netpart.STEN2, 10)

	est, err := netpart.NewEstimator(net, costs, ann)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	rec := netpart.NewTraceRecorder(&buf)
	est.Observer = netpart.SinkObserver(rec)
	if _, err := netpart.Partition(est); err != nil {
		t.Fatal(err)
	}
	if rec.Len() == 0 {
		t.Fatal("recorder captured no events")
	}
	lines := 0
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var ev map[string]any
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("line %d is not valid JSON: %v", lines, err)
		}
		lines++
	}
	if lines != rec.Len() {
		t.Errorf("stream has %d lines, recorder retained %d events", lines, rec.Len())
	}
}

// TestFacadeObservedStencilRun exercises the instrumented execution path
// through the facade and the Chrome trace export.
func TestFacadeObservedStencilRun(t *testing.T) {
	const n, iters = 48, 3
	net := netpart.PaperTestbed()
	cfg := netpart.Config{
		Clusters: []string{"sparc2", "ipc"},
		Counts:   []int{2, 1},
	}
	vec, err := netpart.Decompose(net, cfg, n, netpart.OpFloat)
	if err != nil {
		t.Fatal(err)
	}
	m := netpart.NewMetrics()
	rec := netpart.NewTraceRecorder(nil)
	res, err := netpart.RunStencilSim(net, cfg, vec, netpart.STEN1, n, iters,
		netpart.StencilOptions{Metrics: m, Trace: rec})
	if err != nil {
		t.Fatal(err)
	}
	want := netpart.SequentialStencil(netpart.NewStencilGrid(n), iters)
	for i := range want {
		for j := range want[i] {
			if res.Grid[i][j] != want[i][j] {
				t.Fatalf("grid mismatch at (%d,%d)", i, j)
			}
		}
	}
	snap := m.Snapshot()
	if len(snap.Counters) == 0 || len(snap.Histograms) == 0 {
		t.Errorf("metrics snapshot empty: %+v", snap)
	}
	if rec.Len() != 3*iters {
		t.Errorf("spans = %d, want %d", rec.Len(), 3*iters)
	}
	var buf bytes.Buffer
	if err := netpart.WriteChromeTrace(&buf, rec.Events()); err != nil {
		t.Fatal(err)
	}
	var out []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("chrome trace not valid JSON: %v", err)
	}
	if len(out) != rec.Len() {
		t.Errorf("chrome trace has %d events, want %d", len(out), rec.Len())
	}
}
