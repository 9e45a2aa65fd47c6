package main

import (
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

// TestResidualsMatchTable2: the residual table simulates Table 2's 56 cells
// in Table 2's order and at Table 2's times, then 16 off-grid units whose
// compute fits inside their cycle.
func TestResidualsMatchTable2(t *testing.T) {
	env, err := experiments.NewEnv()
	if err != nil {
		t.Fatal(err)
	}
	env.Jobs = 2
	rows, err := residuals(env)
	if err != nil {
		t.Fatal(err)
	}
	table2, err := experiments.Table2(env)
	if err != nil {
		t.Fatal(err)
	}
	per := len(experiments.Table2Configs)
	if len(rows) != len(table2)*per+16 {
		t.Fatalf("%d residual rows, want %d", len(rows), len(table2)*per+16)
	}
	for r, row := range table2 {
		for c, cell := range row.Cells {
			got := rows[r*per+c]
			if got.offgrid || got.n != row.N || got.v != row.Variant || got.p1 != cell.P1 || got.p2 != cell.P2 ||
				got.sim.c != cell.ElapsedMs/experiments.Iterations {
				t.Errorf("residual row %d is %+v, want Table 2's N=%d %s %d+%d at %v ms",
					r*per+c, got, row.N, row.Variant, cell.P1, cell.P2, cell.ElapsedMs)
			}
		}
	}
	for _, u := range rows[len(table2)*per:] {
		if !u.offgrid || u.sim.c <= 0 || u.sim.comp <= 0 || u.sim.comp > u.sim.c {
			t.Errorf("off-grid unit %+v", u)
		}
	}
	p, err := picks(env, rows)
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != len(table2) {
		t.Fatalf("%d rows of picks, want %d", len(p), len(table2))
	}
	held, err := experiments.HeldOutTwoRank(env)
	if err != nil {
		t.Fatal(err)
	}
	if out := renderResiduals(rows, p, held); !strings.Contains(out, "offgrid") || !strings.Contains(out, "exhaustive") ||
		!strings.Contains(out, "metasystem") || !strings.Contains(out, "across router") {
		t.Error("render malformed")
	}
}
