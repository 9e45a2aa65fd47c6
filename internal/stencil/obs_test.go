package stencil

import (
	"bytes"
	"encoding/json"
	"testing"

	"netpart/internal/core"
	"netpart/internal/model"
	"netpart/internal/obs"
	"netpart/internal/spmd"
)

func TestSimMetricsAndSpans(t *testing.T) {
	const n, iters, p1, p2 = 32, 4, 2, 2
	net := model.PaperTestbed()
	cfg := paperConfig(p1, p2)
	vec, err := core.Decompose(net, cfg, n, model.OpFloat)
	if err != nil {
		t.Fatal(err)
	}
	m := obs.NewRegistry()
	rec := obs.NewRecorder(nil)
	res, err := RunSimAdaptive(net, cfg, vec, STEN1, n, iters, AdaptiveOptions{Metrics: m, Trace: rec})
	if err != nil {
		t.Fatal(err)
	}

	// One cycle record per task per iteration.
	tasks := p1 + p2
	if got := m.Counter(spmd.MetricCycles).Value(); got != int64(tasks*iters) {
		t.Errorf("cycles = %d, want %d", got, tasks*iters)
	}
	if got := m.Histogram(spmd.MetricCycleMs).N(); got != tasks*iters {
		t.Errorf("cycle histogram n = %d, want %d", got, tasks*iters)
	}
	// 1-D chain: 2(tasks-1) border messages per iteration.
	wantMsgs := int64(2 * (tasks - 1) * iters)
	if got := m.Counter(spmd.MetricMsgsSent).Value(); got != wantMsgs {
		t.Errorf("msgs_sent = %d, want %d", got, wantMsgs)
	}
	if got := m.Counter(spmd.MetricMsgsRecv).Value(); got != wantMsgs {
		t.Errorf("msgs_received = %d, want %d", got, wantMsgs)
	}
	wantBytes := wantMsgs * int64(BytesPerPoint*n)
	if got := m.Counter(spmd.MetricBytesSent).Value(); got != wantBytes {
		t.Errorf("bytes_sent = %d, want %d", got, wantBytes)
	}
	if got := m.Histogram(spmd.MetricDeliveryMs).N(); got != int(wantMsgs) {
		t.Errorf("delivery histogram n = %d, want %d", got, wantMsgs)
	}
	if got := m.Gauge(spmd.MetricElapsedMs).Value(); got != res.ElapsedMs {
		t.Errorf("elapsed gauge = %v, want %v", got, res.ElapsedMs)
	}

	// Spans: one per task per cycle, convertible to a Chrome trace.
	spans := 0
	for _, ev := range rec.Events() {
		if ev.Kind == "span" {
			spans++
		}
	}
	if spans != tasks*iters {
		t.Errorf("spans = %d, want %d", spans, tasks*iters)
	}
	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, rec.Events()); err != nil {
		t.Fatal(err)
	}
	var out []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("chrome trace not valid JSON: %v", err)
	}
	if len(out) != spans {
		t.Errorf("chrome trace has %d events, want %d", len(out), spans)
	}

	// Observed runs must not change results: same grid, same elapsed.
	plain, err := RunSim(net, cfg, vec, STEN1, n, iters)
	if err != nil {
		t.Fatal(err)
	}
	if plain.ElapsedMs != res.ElapsedMs {
		t.Errorf("observed elapsed %v != plain %v", res.ElapsedMs, plain.ElapsedMs)
	}
	if !gridsEqual(plain.Grid, res.Grid) {
		t.Error("observed run produced a different grid")
	}

	// Per-proc byte counts surface through the report.
	var bs, br int64
	for _, ps := range res.Report.Procs {
		bs += ps.BytesSent
		br += ps.BytesReceived
	}
	if bs != wantBytes || br != wantBytes {
		t.Errorf("proc byte totals = %d sent / %d received, want %d", bs, br, wantBytes)
	}
}

func TestLiveMetrics(t *testing.T) {
	const n, iters, tasks = 24, 3, 3
	world := localWorld(t, tasks)
	vec := core.Vector{8, 8, 8}
	m := obs.NewRegistry()
	rec := obs.NewRecorder(nil)
	res, err := RunLiveMonitored(world, vec, STEN1, n, iters, nil, m, rec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !gridsEqual(res.Grid, Sequential(NewGrid(n), iters)) {
		t.Error("observed live run diverged from sequential reference")
	}
	if got := m.Histogram(MetricLiveCycleMs).N(); got != tasks*iters {
		t.Errorf("live cycle histogram n = %d, want %d", got, tasks*iters)
	}
	if got := m.Histogram(MetricLiveExchangeMs).N(); got != tasks*iters {
		t.Errorf("live exchange histogram n = %d, want %d", got, tasks*iters)
	}
	if m.Gauge(MetricLiveElapsedMs).Value() <= 0 {
		t.Error("live elapsed gauge not set")
	}
	if rec.Len() != tasks*iters {
		t.Errorf("live spans = %d, want %d", rec.Len(), tasks*iters)
	}
}

func TestAdaptiveMetrics(t *testing.T) {
	const n, iters = 32, 8
	net := model.PaperTestbed()
	cfg := paperConfig(2, 2)
	vec, err := core.Decompose(net, cfg, n, model.OpFloat)
	if err != nil {
		t.Fatal(err)
	}
	m := obs.NewRegistry()
	res, err := RunSimAdaptive(net, cfg, vec, STEN1, n, iters, AdaptiveOptions{
		RebalanceEvery: 2,
		Slowdown: func(rank, iter int) float64 {
			if rank == 0 {
				return 4
			}
			return 1
		},
		Metrics: m,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Counter("adaptive.rebalances").Value(); got != int64(res.Rebalances) {
		t.Errorf("rebalances counter = %d, want %d", got, res.Rebalances)
	}
	if got := m.Counter("adaptive.migrated_rows").Value(); got != int64(res.MigratedRows) {
		t.Errorf("migrated_rows counter = %d, want %d", got, res.MigratedRows)
	}
	if m.Histogram(spmd.MetricCycleMs).N() == 0 {
		t.Error("adaptive run recorded no cycle histogram")
	}
}
