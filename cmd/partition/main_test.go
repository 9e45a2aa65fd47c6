package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestRunPaperConstants(t *testing.T) {
	if err := run(runOptions{App: "sten2", N: 300, Iters: 10, Constants: "paper", Search: "bisect"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunFittedGauss(t *testing.T) {
	if err := run(runOptions{App: "gauss", N: 100, Iters: 10, Constants: "fitted", Search: "scan"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunExhaustiveWithAvailability(t *testing.T) {
	for _, search := range []string{"exhaustive", "global"} {
		if err := run(runOptions{App: "sten1", N: 300, Iters: 10, Constants: "paper", Search: search, Available: "sparc2=3,ipc=2"}); err != nil {
			t.Fatalf("%s: %v", search, err)
		}
	}
}

func TestRunAnnspecFile(t *testing.T) {
	if err := run(runOptions{AnnFile: "../../specs/sten2.json", Iters: 10, Constants: "paper", Search: "bisect"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunCostFile(t *testing.T) {
	if err := run(runOptions{App: "sten1", N: 100, Iters: 10, Constants: "fitted", Search: "bisect", CostFile: "missing.json"}); err == nil {
		t.Error("missing cost file accepted")
	}
}

func TestRunExplainAndTrace(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "trace.jsonl")
	err := run(runOptions{
		App: "sten1", N: 600, Iters: 10, Constants: "paper", Search: "bisect",
		Explain: true, Metrics: true, TraceFile: tracePath,
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// The trace must be valid JSONL: one JSON object per line, with at
	// least one candidate evaluation and a search winner.
	candidates, winners := 0, 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var ev map[string]any
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("trace line is not valid JSON: %v\n%s", err, sc.Text())
		}
		switch ev["type"] {
		case "candidate":
			candidates++
		case "search":
			if ev["kind"] == "winner" {
				winners++
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if candidates == 0 || winners != 1 {
		t.Errorf("trace had %d candidates and %d winners", candidates, winners)
	}
}

func TestRunErrors(t *testing.T) {
	base := runOptions{App: "sten1", N: 100, Iters: 10, Constants: "paper", Search: "bisect"}
	o := base
	o.App = "bogus"
	if err := run(o); err == nil {
		t.Error("unknown app accepted")
	}
	o = base
	o.Constants = "bogus"
	if err := run(o); err == nil {
		t.Error("unknown constants accepted")
	}
	o = base
	o.Search = "bogus"
	if err := run(o); err == nil {
		t.Error("unknown search accepted")
	}
	o = base
	o.Available = "nope=1"
	if err := run(o); err == nil {
		t.Error("unknown cluster accepted")
	}
	o = base
	o.Available = "garbage"
	if err := run(o); err == nil {
		t.Error("malformed availability accepted")
	}
	o = base
	o.Spec = "nonexistent.json"
	if err := run(o); err == nil {
		t.Error("missing spec file accepted")
	}
}
