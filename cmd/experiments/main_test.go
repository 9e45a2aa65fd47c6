package main

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"netpart/internal/experiments"
)

func TestRunSingleExperiments(t *testing.T) {
	// The cheap experiments exercise the full dispatch path (each builds
	// the benchmarked environment).
	for _, which := range []string{"fig1", "fig2", "costfit", "overhead"} {
		if err := run(which, "paper", 60, 1, false, ""); err != nil {
			t.Fatalf("%s: %v", which, err)
		}
	}
}

func TestRunTable1Fitted(t *testing.T) {
	if err := run("table1", "fitted", 60, 2, true, ""); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run("bogus", "paper", 60, 1, false, ""); err == nil {
		t.Error("unknown experiment accepted")
	}
}

// TestRunRejectsBadJobs: a worker pool below one worker is a usage error
// caught before any environment is built, with the flag named in the
// message so the operator knows what to fix.
func TestRunRejectsBadJobs(t *testing.T) {
	for _, jobs := range []int{0, -1, -8} {
		err := run("fig1", "paper", 60, jobs, false, "")
		if err == nil {
			t.Fatalf("jobs=%d accepted, want an error", jobs)
		}
		if !strings.Contains(err.Error(), "-j") {
			t.Errorf("jobs=%d error %q does not name the -j flag", jobs, err)
		}
	}
}

// TestOneGaugePerSection: every printed section has a wall-time gauge of
// its own (the two ablation sections share a key, not a gauge), and every
// section in the table a distinct ID.
func TestOneGaugePerSection(t *testing.T) {
	ids := map[string]bool{}
	for _, s := range experiments.Sections(nil, "", 0) {
		if ids[s.ID] {
			t.Errorf("section ID %q used twice", s.ID)
		}
		ids[s.ID] = true
	}
	f, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = f
	err = run("ablations", "paper", 60, 1, true, "")
	os.Stdout = stdout
	if err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	printed, counted, gauges := strings.Count(string(out), "\n=== "), "", map[string]bool{}
	for _, line := range strings.Split(string(out), "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) != 2:
		case f[0] == "experiments.sections":
			counted = f[1]
		case strings.HasPrefix(f[0], "experiments.") && strings.HasSuffix(f[0], "_ms") &&
			f[0] != "experiments.env_ms" && f[0] != "experiments.total_ms":
			gauges[f[0]] = true
		}
	}
	if printed != 2 || len(gauges) != printed || counted != fmt.Sprint(printed) {
		t.Errorf("%d sections printed, %s counted, %d section gauges %v:\n%s", printed, counted, len(gauges), gauges, out)
	}
}
