package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	r.Counter("msgs").Add(3)
	r.Counter("msgs").Inc()
	if got := r.Counter("msgs").Value(); got != 4 {
		t.Errorf("counter = %d", got)
	}
	r.Gauge("temp").Set(2.5)
	if got := r.Gauge("temp").Value(); got != 2.5 {
		t.Errorf("gauge = %v", got)
	}
	h := r.Histogram("lat")
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	s := r.Snapshot().Histograms["lat"]
	if s.N != 100 || s.Min != 1 || s.Max != 100 {
		t.Errorf("summary = %+v", s)
	}
	if math.Abs(s.P50-50.5) > 1e-9 {
		t.Errorf("p50 = %v", s.P50)
	}
	if math.Abs(s.P99-99.01) > 1e-9 {
		t.Errorf("p99 = %v", s.P99)
	}
	if got := h.Quantile(0); got != 1 {
		t.Errorf("quantile(0) = %v", got)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("x").Add(1)
	r.Counter("x").Inc()
	r.Gauge("x").Set(1)
	r.Histogram("x").Observe(1)
	if r.Counter("x").Value() != 0 || r.Gauge("x").Value() != 0 {
		t.Error("nil metrics should read zero")
	}
	if r.Histogram("x").N() != 0 || r.Histogram("x").Sum() != 0 || r.Histogram("x").Quantile(0.5) != 0 {
		t.Error("nil histogram should read zero")
	}
	if s := r.Histogram("x").export("x").Summary; s.N != 0 {
		t.Error("nil histogram summary should be empty")
	}
	snap := r.Snapshot()
	if len(snap.Counters) != 0 {
		t.Error("nil registry snapshot should be empty")
	}
	if r.Render() != "" {
		t.Error("nil registry render should be empty")
	}

	var rec *Recorder
	rec.Emit("x", nil)
	rec.Span("x", 0, 0, 1, nil)
	if rec.Events() != nil || rec.Len() != 0 || rec.Err() != nil {
		t.Error("nil recorder should be inert")
	}
}

func TestRegistryIdentityAndConcurrency(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") {
		t.Error("counter lookup is not stable")
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				r.Counter("n").Inc()
				r.Histogram("h").Observe(float64(j))
				r.Gauge("g").Set(float64(j))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("n").Value(); got != 800 {
		t.Errorf("concurrent counter = %d", got)
	}
	if got := r.Histogram("h").N(); got != 800 {
		t.Errorf("concurrent histogram n = %d", got)
	}
}

func TestRecorderJSONL(t *testing.T) {
	var buf bytes.Buffer
	rec := NewRecorder(&buf)
	rec.Emit("candidate", map[string]any{"cluster": "sparc2", "p": 4, "tc_ms": 1.5})
	rec.Emit("search", map[string]any{"kind": "winner"})
	if rec.Err() != nil {
		t.Fatal(rec.Err())
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines", len(lines))
	}
	var first map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatalf("line 1 is not valid JSON: %v", err)
	}
	if first["type"] != "candidate" || first["seq"] != float64(1) || first["cluster"] != "sparc2" {
		t.Errorf("line 1 = %v", first)
	}
	// Round-trip through Event.UnmarshalJSON.
	var ev Event
	if err := json.Unmarshal([]byte(lines[0]), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Kind != "candidate" || ev.Seq != 1 || ev.Fields["p"] != float64(4) {
		t.Errorf("round-tripped event = %+v", ev)
	}
	// In-memory copy matches.
	events := rec.Events()
	if len(events) != 2 || events[1].Kind != "search" {
		t.Errorf("events = %+v", events)
	}
}

type failingWriter struct{ err error }

func (f failingWriter) Write([]byte) (int, error) { return 0, f.err }

func TestRecorderWriteError(t *testing.T) {
	rec := NewRecorder(failingWriter{err: errors.New("disk full")})
	rec.Emit("x", nil)
	rec.Emit("y", nil)
	if rec.Err() == nil {
		t.Fatal("expected a write error")
	}
	if rec.Len() != 2 {
		t.Errorf("in-memory recording stopped after write error: %d", rec.Len())
	}
}

func TestChromeTrace(t *testing.T) {
	rec := NewRecorder(nil)
	rec.Span("cycle", 3, 1.5, 2.0, map[string]any{"iter": 7})
	rec.Emit("candidate", map[string]any{"p": 1}) // skipped by the export
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, rec.Events()); err != nil {
		t.Fatal(err)
	}
	var out []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("chrome trace is not a JSON array: %v", err)
	}
	if len(out) != 1 {
		t.Fatalf("got %d chrome events", len(out))
	}
	ce := out[0]
	if ce["name"] != "cycle" || ce["ph"] != "X" || ce["tid"] != float64(3) {
		t.Errorf("chrome event = %v", ce)
	}
	if ce["ts"] != float64(1500) || ce["dur"] != float64(2000) {
		t.Errorf("timestamps not converted to µs: %v", ce)
	}
	args := ce["args"].(map[string]any)
	if args["iter"] != float64(7) {
		t.Errorf("args = %v", args)
	}
}

func TestRegistryRenderAndJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("spmd.msgs_sent").Add(12)
	r.Gauge("drift_pct").Set(-3.5)
	r.Histogram("cycle_ms").Observe(4)
	out := r.Render()
	for _, want := range []string{"spmd.msgs_sent", "12", "drift_pct", "cycle_ms", "n=1"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["spmd.msgs_sent"] != 12 || snap.Histograms["cycle_ms"].N != 1 {
		t.Errorf("snapshot = %+v", snap)
	}
}
