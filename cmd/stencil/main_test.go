package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestRunSimFixed(t *testing.T) {
	if err := run(runOptions{N: 48, Variant: "sten1", Iters: 3, P1: 2, P2: 1, Runtime: "sim", Verify: true, Mode: "fixed", SlowFactor: 1}); err != nil {
		t.Fatal(err)
	}
}

func TestRunSimConverge(t *testing.T) {
	if err := run(runOptions{N: 32, Variant: "sten2", Iters: 10, P1: 2, P2: 0, Runtime: "sim", Verify: true, Mode: "converge", Tol: 0.05, SlowFactor: 1}); err != nil {
		t.Fatal(err)
	}
}

func TestRunSimAdaptive(t *testing.T) {
	if err := run(runOptions{N: 64, Variant: "sten1", Iters: 16, P1: 3, P2: 0, Runtime: "sim", Mode: "adaptive", SlowRank: 1, SlowFactor: 4}); err != nil {
		t.Fatal(err)
	}
}

func TestRunLiveSmall(t *testing.T) {
	if err := run(runOptions{N: 24, Variant: "sten2", Iters: 2, P1: 2, P2: 1, Runtime: "live", Verify: true, Mode: "fixed", SlowFactor: 1}); err != nil {
		t.Fatal(err)
	}
}

func TestRunSimObservability(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "cycles.jsonl")
	chromePath := filepath.Join(dir, "cycles.json")
	err := run(runOptions{
		N: 48, Variant: "sten1", Iters: 3, P1: 2, P2: 1,
		Runtime: "sim", Verify: true, Mode: "fixed", SlowFactor: 1,
		Metrics: true, TraceFile: tracePath, ChromeFile: chromePath,
	})
	if err != nil {
		t.Fatal(err)
	}

	// One span event per task per cycle, each a valid JSON line.
	f, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	spans := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var ev map[string]any
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("trace line is not valid JSON: %v\n%s", err, sc.Text())
		}
		if ev["type"] == "span" {
			spans++
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	const tasks, iters = 3, 3
	if spans != tasks*iters {
		t.Errorf("spans = %d, want %d", spans, tasks*iters)
	}

	// The Chrome export must be a JSON array with the same event count.
	raw, err := os.ReadFile(chromePath)
	if err != nil {
		t.Fatal(err)
	}
	var out []map[string]any
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("chrome trace not valid JSON: %v", err)
	}
	if len(out) != spans {
		t.Errorf("chrome trace has %d events, want %d", len(out), spans)
	}
}

func TestRunErrors(t *testing.T) {
	base := runOptions{N: 24, Variant: "sten1", Iters: 2, P1: 1, P2: 0, Runtime: "sim", Mode: "fixed", SlowFactor: 1}
	o := base
	o.Variant = "bogus"
	if err := run(o); err == nil {
		t.Error("unknown variant accepted")
	}
	o = base
	o.Runtime = "bogus"
	if err := run(o); err == nil {
		t.Error("unknown runtime accepted")
	}
	o = base
	o.Mode = "bogus"
	if err := run(o); err == nil {
		t.Error("unknown mode accepted")
	}
	o = base
	o.Faults = "crash:0@1"
	if err := run(o); err == nil {
		t.Error("a crash on the sim runtime accepted")
	}
}

// TestRunLiveFaultTolerant drives the live runtime's fault-tolerant branch:
// a crash schedule switches it to checkpointing and recovery, and the
// recovered grid must still verify against the sequential reference.
func TestRunLiveFaultTolerant(t *testing.T) {
	err := run(runOptions{
		N: 48, Variant: "sten1", Iters: 12, P1: 2, P2: 2, Runtime: "live", Verify: true,
		Mode: "fixed", SlowFactor: 1, Faults: "crash:1@5", FaultSeed: 1, Ckpt: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRunLiveRepart drives the live runtime's continuous repartitioning
// branch. With explicit counts there is no drift monitor, so the interval
// fallback drives the rounds; the grid must verify however rows migrate.
func TestRunLiveRepart(t *testing.T) {
	err := run(runOptions{
		N: 48, Variant: "sten2", Iters: 12, P1: 2, P2: 1, Runtime: "live", Verify: true,
		Mode: "fixed", SlowFactor: 1, Repart: true, RepartEvery: 4, RepartHorizon: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
}
