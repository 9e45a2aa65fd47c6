package drift

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"netpart/internal/obs"
)

// TestSyntheticSlowdownFires is the satellite acceptance test: a task that
// runs at the predicted 10ms/cycle, then degrades to a sustained 2×
// slowdown (+100% deviation, far past the 25% threshold), must produce a
// structured drift event — and exactly one until the drift clears.
func TestSyntheticSlowdownFires(t *testing.T) {
	reg := obs.NewRegistry()
	var buf bytes.Buffer
	rec := obs.NewRecorder(&buf)
	m := New(Config{PredCycleMs: 10, PredCommMs: 2}, reg, rec)

	for c := 0; c < 10; c++ {
		m.OnCycle(0, c, 10, 2) // on prediction: no drift
	}
	if got := reg.Counter("drift.events").Value(); got != 0 {
		t.Fatalf("events after on-prediction cycles = %d", got)
	}
	for c := 10; c < 30; c++ {
		m.OnCycle(0, c, 20, 2) // 2x slowdown
	}
	if got := reg.Counter("drift.events").Value(); got != 1 {
		t.Fatalf("events after sustained slowdown = %d, want 1 (edge-triggered)", got)
	}
	if got := reg.Gauge(`drift.pct{task="0"}`).Value(); got < 50 {
		t.Errorf("drift.pct gauge = %v, want EWMA well above threshold", got)
	}
	if got := reg.Gauge("drift.worst_pct").Value(); got < 50 || m.Worst() != got {
		t.Errorf("drift.worst_pct = %v, Worst() = %v", got, m.Worst())
	}

	line := buf.String()
	if !strings.Contains(line, `"type":"drift"`) {
		t.Fatalf("recorder stream missing drift event: %s", line)
	}
	for _, want := range []string{`"component":"cycle"`, `"measured_ms":20`, `"pred_ms":10`, `"dev_pct":100`} {
		if !strings.Contains(line, want) {
			t.Errorf("drift event missing %s in: %s", want, line)
		}
	}

	// Recovery re-arms: back on prediction, then a second slowdown fires a
	// second event.
	for c := 30; c < 60; c++ {
		m.OnCycle(0, c, 10, 2)
	}
	for c := 60; c < 80; c++ {
		m.OnCycle(0, c, 20, 2)
	}
	if got := reg.Counter("drift.events").Value(); got != 2 {
		t.Errorf("events after recover+re-drift = %d, want 2", got)
	}
}

// TestThresholdBoundary: the event fires when the smoothed deviation
// reaches the threshold, not on a single outlier below it.
func TestThresholdBoundary(t *testing.T) {
	reg := obs.NewRegistry()
	m := New(Config{PredCycleMs: 100, ThresholdPct: 25}, reg, nil)

	// +20% sustained: below threshold, never fires.
	for c := 0; c < 50; c++ {
		m.OnCycle(0, c, 120, 0)
	}
	if got := reg.Counter("drift.events").Value(); got != 0 {
		t.Fatalf("events at +20%% = %d, want 0", got)
	}
	// +30% sustained: EWMA converges past 25, fires once.
	for c := 50; c < 100; c++ {
		m.OnCycle(0, c, 130, 0)
	}
	if got := reg.Counter("drift.events").Value(); got != 1 {
		t.Errorf("events at +30%% = %d, want 1", got)
	}
}

func TestWarmupSuppresses(t *testing.T) {
	reg := obs.NewRegistry()
	m := New(Config{PredCycleMs: 10, Warmup: 5}, reg, nil)
	m.OnCycle(0, 0, 100, 0) // wildly off, but within warmup
	m.OnCycle(0, 1, 100, 0)
	if got := reg.Counter("drift.events").Value(); got != 0 {
		t.Errorf("events during warmup = %d, want 0", got)
	}
	for c := 2; c < 8; c++ {
		m.OnCycle(0, c, 100, 0)
	}
	if got := reg.Counter("drift.events").Value(); got != 1 {
		t.Errorf("events after warmup = %d, want 1", got)
	}
}

// TestWorstCountsWarmCyclesOnly: drift.worst_pct folds in the same
// observations that may fire an event, and the EWMA starts at the first
// warm cycle, so a start-of-run outlier inside warmup counts for nothing.
// A component without a prediction exports no gauge.
func TestWorstCountsWarmCyclesOnly(t *testing.T) {
	reg := obs.NewRegistry()
	m := New(Config{PredCycleMs: 10, Warmup: 3}, reg, nil)
	m.OnCycle(0, 0, 30, 0) // +200 %, the first cycle
	for c := 1; c < 10; c++ {
		m.OnCycle(0, c, 10, 0)
	}
	// The EWMA starts at 0 at the third, first warm, cycle and stays there.
	if got := reg.Gauge("drift.worst_pct").Value(); got != 0 || m.Worst() != got {
		t.Errorf("drift.worst_pct = %v, Worst() = %v, want 0", got, m.Worst())
	}
	if got := reg.Counter("drift.events").Value(); got != 0 {
		t.Errorf("events = %d, want 0 (the +200 %% cycle is inside the warmup)", got)
	}
	if out := reg.Render(); strings.Contains(out, "drift.comm_pct") {
		t.Errorf("unpredicted T_comm exports a gauge:\n%s", out)
	}
}

func TestCommComponentAndPerTaskGauges(t *testing.T) {
	reg := obs.NewRegistry()
	var buf bytes.Buffer
	rec := obs.NewRecorder(&buf)
	m := New(Config{PredCycleMs: 10, PredCommMs: 2}, reg, rec)
	for c := 0; c < 10; c++ {
		m.OnCycle(1, c, 10, 6) // comm 3x over
		m.OnCycle(2, c, 10, 2) // other task healthy
	}
	if !strings.Contains(buf.String(), `"component":"comm"`) {
		t.Error("no comm drift event emitted")
	}
	if got := reg.Gauge(`drift.comm_pct{task="1"}`).Value(); got < 100 {
		t.Errorf("comm gauge = %v", got)
	}
	if got := reg.Gauge(`drift.pct{task="2"}`).Value(); got != 0 {
		t.Errorf("healthy task gauge = %v, want 0", got)
	}
}

func TestNoPredictionIsInert(t *testing.T) {
	reg := obs.NewRegistry()
	m := New(Config{}, reg, nil) // no predictions configured
	for c := 0; c < 10; c++ {
		m.OnCycle(0, c, 1e9, 1e9)
	}
	if got := reg.Counter("drift.events").Value(); got != 0 {
		t.Errorf("events with no prediction = %d", got)
	}
}

func TestNilMonitorAndNilOutputs(t *testing.T) {
	var m *Monitor
	m.OnCycle(0, 0, 1, 1)
	if m.Worst() != 0 {
		t.Error("nil monitor Worst != 0")
	}
	// A nil *Monitor in the interface must be callable: this is exactly
	// how runtimes hold the sink.
	var sink obs.CycleSink = m
	sink.OnCycle(0, 0, 1, 1)

	// Nil registry and recorder: observations are dropped, not panics.
	m2 := New(Config{PredCycleMs: 1}, nil, nil)
	for c := 0; c < 10; c++ {
		m2.OnCycle(0, c, 10, 0)
	}
	if m2.Worst() < 25 {
		t.Errorf("Worst = %v, want tracked even with nil outputs", m2.Worst())
	}
}

// TestConcurrentRanks exercises the one-goroutine-per-rank calling
// pattern; go test -race is the assertion.
func TestConcurrentRanks(t *testing.T) {
	reg := obs.NewRegistry()
	var buf bytes.Buffer
	m := New(Config{PredCycleMs: 10, PredCommMs: 2}, reg, obs.NewRecorder(&buf))
	var wg sync.WaitGroup
	for task := 0; task < 8; task++ {
		wg.Add(1)
		go func(task int) {
			defer wg.Done()
			for c := 0; c < 200; c++ {
				m.OnCycle(task, c, float64(10+task), 2)
			}
		}(task)
	}
	wg.Wait()
	for task := 0; task < 8; task++ {
		if g := reg.Gauge(fmt.Sprintf(`drift.pct{task="%d"}`, task)); g.Value() < 0 {
			t.Errorf("task %d gauge negative", task)
		}
	}
}
