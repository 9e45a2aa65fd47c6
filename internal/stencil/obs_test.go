package stencil

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"testing"

	"netpart/internal/core"
	"netpart/internal/model"
	"netpart/internal/obs"
	"netpart/internal/repart"
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
	res, err := Sim(net, cfg, vec, STEN1, n, iters, Options{Metrics: m, Trace: rec})
	if err != nil {
		t.Fatal(err)
	}

	// One cycle record per task per iteration.
	tasks := p1 + p2
	if got := m.Histogram(MetricCycleMs).N(); got != tasks*iters {
		t.Errorf("cycle histogram n = %d, want %d", got, tasks*iters)
	}
	if got := m.Histogram(MetricExchangeMs).N(); got != tasks*iters {
		t.Errorf("exchange histogram n = %d, want %d", got, tasks*iters)
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
	if got := m.Gauge(MetricElapsedMs).Value(); got != res.ElapsedMs {
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
	plain, err := Sim(net, cfg, vec, STEN1, n, iters, Options{})
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
	res, err := Live(world, vec, STEN1, n, iters, Options{Metrics: m, Trace: rec})
	if err != nil {
		t.Fatal(err)
	}
	if !gridsEqual(res.Grid, Sequential(NewGrid(n), iters)) {
		t.Error("observed live run diverged from sequential reference")
	}
	if got := m.Histogram(MetricCycleMs).N(); got != tasks*iters {
		t.Errorf("live cycle histogram n = %d, want %d", got, tasks*iters)
	}
	if got := m.Histogram(MetricExchangeMs).N(); got != tasks*iters {
		t.Errorf("live exchange histogram n = %d, want %d", got, tasks*iters)
	}
	if m.Gauge(MetricElapsedMs).Value() <= 0 {
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
	res, err := Sim(net, cfg, vec, STEN1, n, iters, Options{
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
	if got := m.Counter(repart.MetricPlans).Value(); got != int64(len(res.Plans)) {
		t.Errorf("plans counter = %d, want %d", got, len(res.Plans))
	}
	if got := m.Counter(repart.MetricMigratedRows).Value(); got != int64(res.MigratedRows) || got == 0 {
		t.Errorf("migrated_rows counter = %d, want %d (> 0)", got, res.MigratedRows)
	}
	if m.Histogram(MetricCycleMs).N() == 0 {
		t.Error("adaptive run recorded no cycle histogram")
	}
}

// TestOneCycleSeriesOnEitherRuntime: Sim and Live observe a cycle in the
// one driver function, so a run records the same series on either runtime:
// the same instrument names outside the simulator's own spmd.* message
// series, ranks × Iterations observations in stencil.cycle_ms and
// stencil.exchange_ms, and per rank one sink call and one span per cycle,
// cycles in order, the sink's cycle time the span's duration, the exchange
// time within it. A cycle is timed by the driver, so on Sim the converge
// reduction and the repartitioning round between two cycles leave a gap
// between their spans, and nothing else does.
func TestOneCycleSeriesOnEitherRuntime(t *testing.T) {
	const n, iters, tasks = 36, 6, 3
	vec := core.Vector{6, 18, 12}
	for _, pol := range []struct {
		name     string
		opts     Options
		gapAfter func(iter int) bool // on Sim: a reduction or a round follows cycle iter
	}{
		{"plain", Options{}, func(int) bool { return false }},
		{"tol", Options{Tol: 1e-300}, func(int) bool { return true }},
		{"rebalance", Options{RebalanceEvery: 2}, func(iter int) bool { return iter%2 == 1 }},
	} {
		for _, v := range []Variant{STEN1, STEN2} {
			names := map[bool][]string{}
			for _, live := range []bool{false, true} {
				name := fmt.Sprintf("%s %s %s", runtimeName(live), pol.name, v)
				m, rec, log := obs.NewRegistry(), obs.NewRecorder(nil), newCycleLog()
				opts := pol.opts
				opts.Metrics, opts.Trace, opts.Cycles = m, rec, log
				var res Result
				var err error
				if live {
					world := localWorld(t, tasks)
					res, err = Live(world, vec, v, n, iters, opts)
					closeWorld(world)
				} else {
					res, err = Sim(model.PaperTestbed(), paperConfig(2, 1), vec, v, n, iters, opts)
				}
				if err != nil || res.Iterations != iters {
					t.Fatalf("%s: %d iterations, %v", name, res.Iterations, err)
				}
				names[live] = seriesNames(m)
				for _, h := range []string{MetricCycleMs, MetricExchangeMs} {
					if got := m.Histogram(h).N(); got != tasks*iters {
						t.Errorf("%s: %s holds %d observations, want %d", name, h, got, tasks*iters)
					}
				}
				if got := m.Counter(repart.MetricMigratedRows).Value(); got != int64(res.MigratedRows) {
					t.Errorf("%s: %s = %d, Result.MigratedRows %d", name, repart.MetricMigratedRows, got, res.MigratedRows)
				}
				spans := map[int][]map[string]any{}
				for _, ev := range rec.Events() {
					if ev.Kind == "span" {
						rank := ev.Fields["tid"].(int)
						spans[rank] = append(spans[rank], ev.Fields)
					}
				}
				for rank := 0; rank < tasks; rank++ {
					if want := []int{0, 1, 2, 3, 4, 5}; !slices.Equal(log.order[rank], want) || len(spans[rank]) != iters {
						t.Fatalf("%s rank %d: sink calls for cycles %v and %d spans, want %v and %d",
							name, rank, log.order[rank], len(spans[rank]), want, iters)
					}
					end := 0.0
					for iter, sp := range spans[rank] {
						key := [2]int{rank, iter}
						start, dur := sp["ts_ms"].(float64), sp["dur_ms"].(float64)
						if sp["iter"] != iter || len(sp) != 5 || dur != log.cycle[key] || log.exchange[key] < 0 || log.exchange[key] > dur {
							t.Errorf("%s rank %d: span %v against sink cycle %v ms, exchange %v ms",
								name, rank, sp, log.cycle[key], log.exchange[key])
						}
						gap := start - end
						if iter > 0 && (gap < -1e-9 || !live && pol.gapAfter(iter-1) != (gap > 1e-9)) {
							t.Errorf("%s rank %d: cycle %d starts %v ms after cycle %d ends", name, rank, iter, gap, iter-1)
						}
						end = start + dur
					}
				}
			}
			if !slices.Equal(names[false], names[true]) {
				t.Errorf("%s %s: Sim records %v, Live %v", pol.name, v, names[false], names[true])
			}
		}
	}
}

// seriesNames lists the series in m outside the simulator's spmd.* family,
// sorted.
func seriesNames(m *obs.Registry) []string {
	var names []string
	snap := m.Snapshot()
	for _, set := range []map[string]bool{keys(snap.Counters), keys(snap.Gauges), keys(snap.Histograms)} {
		for name := range set {
			if !strings.HasPrefix(name, "spmd.") {
				names = append(names, name)
			}
		}
	}
	slices.Sort(names)
	return names
}

func keys[V any](m map[string]V) map[string]bool {
	out := map[string]bool{}
	for k := range m {
		out[k] = true
	}
	return out
}
