package core

import (
	"strings"
	"testing"

	"netpart/internal/commbench"
	"netpart/internal/cost"
	"netpart/internal/model"
	"netpart/internal/topo"
)

func TestSearchTraceRecordsPartition(t *testing.T) {
	e := paperEstimator(t, 600, false)
	trace := &SearchTrace{}
	e.Observer = trace
	res, err := Partition(e)
	if err != nil {
		t.Fatal(err)
	}

	computed := 0
	for _, c := range trace.Candidates {
		if !c.Cached {
			computed++
		}
	}
	if computed != res.Evaluations {
		t.Errorf("computed candidates = %d, want %d (Result.Evaluations)", computed, res.Evaluations)
	}

	// Every bisect probe must have produced at least one candidate event at
	// its midpoint or midpoint+1 (memo hits included).
	byClusterP := map[string]map[int]bool{}
	for _, c := range trace.Candidates {
		if byClusterP[c.Cluster] == nil {
			byClusterP[c.Cluster] = map[int]bool{}
		}
		byClusterP[c.Cluster][c.P] = true
	}
	probes := 0
	for _, ev := range trace.Events {
		if ev.Kind != EvBisectStep {
			continue
		}
		probes++
		if !byClusterP[ev.Cluster][ev.P] && !byClusterP[ev.Cluster][ev.P+1] {
			t.Errorf("bisect probe %s p=%d has no candidate event", ev.Cluster, ev.P)
		}
	}
	if probes == 0 {
		t.Error("no bisect-step events recorded")
	}

	winner, ok := trace.Winner()
	if !ok {
		t.Fatal("trace has no winner")
	}
	if winner.Config.String() != res.Config.String() || winner.TcMs != res.TcMs {
		t.Errorf("traced winner %v (%.3f ms) != Partition result %v (%.3f ms)",
			winner.Config, winner.TcMs, res.Config, res.TcMs)
	}

	for _, cluster := range trace.Clusters() {
		curve := trace.ClusterCurve(cluster)
		if len(curve) == 0 {
			t.Errorf("cluster %s has an empty curve", cluster)
		}
		if !Unimodal(curve) {
			t.Errorf("cluster %s T_c(p) curve is not unimodal: %+v", cluster, curve)
		}
	}

	report := trace.Explain()
	for _, want := range []string{"bisect", "T_c(p) curve", "decision path", "winner", "T_comp"} {
		if !strings.Contains(report, want) {
			t.Errorf("explain report missing %q:\n%s", want, report)
		}
	}
}

func TestSearchTraceReset(t *testing.T) {
	e := paperEstimator(t, 300, false)
	trace := &SearchTrace{}
	e.Observer = trace
	if _, err := Partition(e); err != nil {
		t.Fatal(err)
	}
	trace.Reset()
	if len(trace.Candidates) != 0 || len(trace.Events) != 0 {
		t.Error("reset trace is not empty")
	}
	if _, ok := trace.Winner(); ok {
		t.Error("reset trace still has a winner")
	}
}

func TestUnimodal(t *testing.T) {
	mk := func(tc ...float64) []CurvePoint {
		pts := make([]CurvePoint, len(tc))
		for i, v := range tc {
			pts[i] = CurvePoint{P: i + 1, TcMs: v}
		}
		return pts
	}
	for _, tc := range []struct {
		name string
		pts  []CurvePoint
		want bool
	}{
		{"empty", nil, true},
		{"single", mk(1), true},
		{"decreasing", mk(3, 2, 1), true},
		{"increasing", mk(1, 2, 3), true},
		{"valley", mk(3, 1, 2), true},
		{"flat valley", mk(3, 1, 1, 2), true},
		{"two valleys", mk(3, 1, 2, 1, 3), false},
	} {
		if got := Unimodal(tc.pts); got != tc.want {
			t.Errorf("%s: Unimodal = %v, want %v", tc.name, got, tc.want)
		}
	}
}

type fakeSink struct {
	kinds  []string
	fields []map[string]any
}

func (s *fakeSink) Emit(kind string, fields map[string]any) {
	s.kinds = append(s.kinds, kind)
	s.fields = append(s.fields, fields)
}

func TestSinkObserverFlattensStream(t *testing.T) {
	e := paperEstimator(t, 600, false)
	sink := &fakeSink{}
	e.Observer = SinkObserver{Sink: sink}
	res, err := Partition(e)
	if err != nil {
		t.Fatal(err)
	}
	candidates, searches, winners := 0, 0, 0
	for i, kind := range sink.kinds {
		switch kind {
		case "candidate":
			candidates++
			f := sink.fields[i]
			if _, ok := f["tc_ms"].(float64); !ok {
				t.Fatalf("candidate event without tc_ms: %v", f)
			}
			if _, ok := f["cluster"].(string); !ok {
				t.Fatalf("candidate event without cluster: %v", f)
			}
		case "search":
			searches++
			if sink.fields[i]["kind"] == EvWinner {
				winners++
				if sink.fields[i]["config"] != res.Config.String() {
					t.Errorf("winner config = %v, want %v", sink.fields[i]["config"], res.Config)
				}
			}
		default:
			t.Errorf("unexpected event kind %q", kind)
		}
	}
	if candidates == 0 || searches == 0 || winners != 1 {
		t.Errorf("stream had %d candidates, %d search events, %d winners",
			candidates, searches, winners)
	}
	// Nil sink must be inert.
	e.Observer = SinkObserver{}
	if _, err := Partition(e); err != nil {
		t.Fatal(err)
	}
}

func TestMultiObserverFansOut(t *testing.T) {
	e := paperEstimator(t, 300, false)
	a, b := &SearchTrace{}, &SearchTrace{}
	e.Observer = MultiObserver{a, nil, b}
	if _, err := Partition(e); err != nil {
		t.Fatal(err)
	}
	if len(a.Candidates) == 0 || len(a.Candidates) != len(b.Candidates) {
		t.Errorf("fan-out mismatch: %d vs %d candidates", len(a.Candidates), len(b.Candidates))
	}
	if len(a.Events) != len(b.Events) {
		t.Errorf("fan-out mismatch: %d vs %d events", len(a.Events), len(b.Events))
	}
}

func TestObserverStrategies(t *testing.T) {
	for _, tc := range []struct {
		strategy string
		run      func(*Estimator) (Result, error)
	}{
		{"scan", PartitionLinear},
		{"exhaustive", PartitionExhaustive},
		{"global", PartitionGlobal},
	} {
		e := paperEstimator(t, 300, false)
		trace := &SearchTrace{}
		e.Observer = trace
		res, err := tc.run(e)
		if err != nil {
			t.Fatalf("%s: %v", tc.strategy, err)
		}
		var last SearchEvent
		found := false
		for _, ev := range trace.Events {
			if ev.Kind == EvWinner && ev.Strategy == tc.strategy {
				last, found = ev, true
			}
		}
		if !found {
			t.Fatalf("%s: no winner event with that strategy", tc.strategy)
		}
		if last.Config.String() != res.Config.String() {
			t.Errorf("%s: winner event %v != result %v", tc.strategy, last.Config, res.Config)
		}
	}
}

// TestExplainNamesTheCharge: the winner's report names what its stagger
// was charged — the cluster's measured stagger on a measured table, 2·own
// on the paper's — and names nothing for an overlapped phase; with the
// IPC cluster unavailable the winner is sparc2's alone. With it, on the
// table commbench fits, N = 300 STEN-1's winner crosses at sparc2:6 +
// ipc:1, a walk chain the table measured.
func TestExplainNamesTheCharge(t *testing.T) {
	fit, err := commbench.Run(model.PaperTestbed(), []topo.Topology{topo.OneD{}}, commbench.DefaultGrid())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		tbl          *cost.Table
		overlap, ipc bool
		want         string
	}{
		{measuredPaperTable(), false, false, "stagger charge: " + ChargeStagger},
		{cost.PaperTable(), false, false, "stagger charge: " + ChargeTwoOwn},
		{measuredPaperTable(), true, false, ""},
		{fit.Table, false, true, "stagger charge: " + ChargeChain},
	} {
		net := model.PaperTestbed()
		if !tc.ipc {
			net.Cluster(model.IPCCluster).Available = 0
		}
		e, err := NewEstimator(net, tc.tbl, stencilAnnotations(300, tc.overlap))
		if err != nil {
			t.Fatal(err)
		}
		trace := &SearchTrace{}
		e.Observer = trace
		res, err := Partition(e)
		if err != nil {
			t.Fatal(err)
		}
		report := trace.Explain()
		if got := strings.Contains(report, "stagger charge:"); got != (tc.want != "") || !strings.Contains(report, tc.want) {
			t.Errorf("overlap %v: want %q in\n%s", tc.overlap, tc.want, report)
		}
		if tc.ipc && res.Config.String() != "sparc2:6 ipc:1" {
			t.Errorf("winner %v, want sparc2:6 ipc:1", res.Config)
		}
	}
}
