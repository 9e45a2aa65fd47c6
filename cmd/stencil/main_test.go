package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"netpart/internal/stencil"
)

// runOut runs the command with o and returns what it printed.
func runOut(t *testing.T, o runOptions) (string, error) {
	t.Helper()
	var out bytes.Buffer
	err := run(&out, o)
	return out.String(), err
}

func TestRunSimFixed(t *testing.T) {
	if _, err := runOut(t, runOptions{N: 48, Variant: "sten1", Iters: 3, P1: 2, P2: 1, Runtime: "sim", Verify: true}); err != nil {
		t.Fatal(err)
	}
}

// TestRunSimConverge: under Tol the run stops where the sequential
// reference does, before the -iters cap.
func TestRunSimConverge(t *testing.T) {
	const n, tol, limit = 32, 0.05, 400
	out, err := runOut(t, runOptions{N: n, Variant: "sten2", Iters: limit, P1: 2, P2: 0, Runtime: "sim", Verify: true, Tol: tol})
	if err != nil {
		t.Fatal(err)
	}
	_, iters, _ := stencil.SequentialUntil(stencil.NewGrid(n), tol, limit)
	if iters >= limit || !strings.Contains(out, fmt.Sprintf("after %d iterations", iters)) {
		t.Errorf("want convergence after %d < %d iterations:\n%s", iters, limit, out)
	}
}

// TestRunSimAdaptive: a slowed rank under -repart on the sim runtime moves
// rows away from it.
func TestRunSimAdaptive(t *testing.T) {
	out, err := runOut(t, runOptions{
		N: 64, Variant: "sten1", Iters: 16, P1: 3, P2: 0, Runtime: "sim", Verify: true,
		Repart: true, RepartEvery: 4, RepartHorizon: 32, Faults: "slow:1,4@2-16", FaultSeed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, " reason=") { // one line per applied plan
		t.Errorf("no plan applied:\n%s", out)
	}
}

func TestRunLiveSmall(t *testing.T) {
	if _, err := runOut(t, runOptions{N: 24, Variant: "sten2", Iters: 2, P1: 2, P2: 1, Runtime: "live", Verify: true}); err != nil {
		t.Fatal(err)
	}
}

func TestRunSimObservability(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "cycles.jsonl")
	chromePath := filepath.Join(dir, "cycles.json")
	_, err := runOut(t, runOptions{
		N: 48, Variant: "sten1", Iters: 3, P1: 2, P2: 1,
		Runtime: "sim", Verify: true,
		Metrics: true, TraceFile: tracePath, ChromeFile: chromePath,
	})
	if err != nil {
		t.Fatal(err)
	}

	// One span event per task per cycle, each a valid JSON line.
	events := readTrace(t, tracePath)
	spans := 0
	for _, ev := range events {
		if ev["type"] == "span" {
			spans++
		}
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

// readTrace parses a -trace file, failing on a line that is not JSON.
func readTrace(t *testing.T, path string) []map[string]any {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var events []map[string]any
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var ev map[string]any
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("trace line is not valid JSON: %v\n%s", err, sc.Text())
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return events
}

func TestRunErrors(t *testing.T) {
	base := runOptions{N: 24, Variant: "sten1", Iters: 2, P1: 1, P2: 0, Runtime: "sim"}
	o := base
	o.Variant = "bogus"
	if _, err := runOut(t, o); err == nil {
		t.Error("unknown variant accepted")
	}
	o = base
	o.Runtime = "bogus"
	if _, err := runOut(t, o); err == nil {
		t.Error("unknown runtime accepted")
	}
	o = base
	o.Faults = "crash:0@1"
	if _, err := runOut(t, o); err == nil {
		t.Error("a crash on the sim runtime accepted")
	}
}

// TestErrorLinePrefixesOnce: a refusal the stencil library words prints
// under one "stencil:" prefix, and the command's own errors gain it.
func TestErrorLinePrefixesOnce(t *testing.T) {
	_, err := runOut(t, runOptions{N: 12, Variant: "sten1", Iters: -1, P1: 2, P2: 0, Runtime: "sim", Verify: true})
	if err == nil {
		t.Fatal("-iters -1 accepted")
	}
	if got, want := errorLine(err), "stencil: iters = -1; a run needs 0 or more iterations"; got != want {
		t.Errorf("printed %q, want %q", got, want)
	}
	_, err = runOut(t, runOptions{N: 12, Variant: "bogus", Iters: 1, P1: 2, P2: 0, Runtime: "sim"})
	if got, want := errorLine(err), `stencil: unknown variant "bogus"`; got != want {
		t.Errorf("printed %q, want %q", got, want)
	}
}

// TestRunLiveFaultTolerant drives the live runtime's fault-tolerant branch:
// a crash schedule switches it to checkpointing and recovery, and the
// recovered grid must still verify against the sequential reference.
func TestRunLiveFaultTolerant(t *testing.T) {
	_, err := runOut(t, runOptions{
		N: 48, Variant: "sten1", Iters: 12, P1: 2, P2: 2, Runtime: "live", Verify: true,
		Faults: "crash:1@5", FaultSeed: 1, Ckpt: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRunLiveRepart drives the live runtime's continuous repartitioning.
// Live has no drift monitor, so the interval drives the rounds; the grid
// must verify however rows migrate.
func TestRunLiveRepart(t *testing.T) {
	_, err := runOut(t, runOptions{
		N: 48, Variant: "sten2", Iters: 12, P1: 2, P2: 1, Runtime: "live", Verify: true,
		Repart: true, RepartEvery: 4, RepartHorizon: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRunHonoursOrRefuses: every flag combination either runs, verifies
// and shows that each option took effect, or fails naming the option the
// runtime cannot honour. None is silently ignored.
func TestRunHonoursOrRefuses(t *testing.T) {
	base := runOptions{
		N: 48, Variant: "sten2", Iters: 16, P1: 3, P2: 0, Verify: true,
		FaultSeed: 1, Ckpt: 4, RepartEvery: 4, RepartHorizon: 32,
	}
	with := func(runtime string, edit func(*runOptions)) runOptions {
		o := base
		o.Runtime = runtime
		edit(&o)
		return o
	}
	// Tol 2 converges after 12 iterations at N=48, before the cap of 16.
	converged := "Δ 1.948 after 12 iterations (tolerance 2, cap 16)"
	for _, c := range []struct {
		name   string
		o      runOptions
		want   []string // printed lines showing each option took effect
		not    []string // output that must be absent
		refuse string   // the error instead, when the runtime cannot honour it
	}{
		// Commands that the former -mode fork ran without an option they named.
		{name: "live tol capped", o: runOptions{N: 48, Variant: "sten2", Iters: 5, P1: 2, P2: 1, Runtime: "live", Verify: true, Tol: 0.5},
			want: []string{"after 5 iterations (tolerance 0.5, cap 5)"}},
		{name: "sim repart drop", o: with("sim", func(o *runOptions) { o.Repart, o.Faults = true, "drop:0.5" }),
			want: []string{"fault schedule : drop:0.5 ", "repartitioning : 3 rounds"}},
		{name: "sim tol drop metrics", o: with("sim", func(o *runOptions) { o.Tol, o.Faults, o.Metrics = 0.5, "drop:0.5", true }),
			want: []string{"fault schedule : drop:0.5 ", "(tolerance 0.5, cap 16)", "spmd.msgs_sent", "stencil.cycle_ms"}},
		{name: "live repart tol", o: with("live", func(o *runOptions) { o.Repart, o.Tol = true, 2 }),
			want: []string{converged, "repartitioning : 2 rounds"}},
		{name: "live auto repart metrics", o: runOptions{N: 240, Variant: "sten2", Iters: 40, P1: -1, P2: -1, Runtime: "live", Verify: true,
			Metrics: true, Repart: true, RepartEvery: 4, RepartHorizon: 32},
			want: []string{"repartitioning : 9 rounds", "stencil.cycle_ms"}, not: []string{"drift."}},

		{name: "sim tol", o: with("sim", func(o *runOptions) { o.Tol = 2 }), want: []string{converged}},
		{name: "sim repart", o: with("sim", func(o *runOptions) { o.Repart = true }), want: []string{"repartitioning : 3 rounds"}},
		{name: "sim drop", o: with("sim", func(o *runOptions) { o.Faults = "drop:0.1" }), want: []string{"fault schedule : drop:0.1 "}},
		{name: "sim slow", o: with("sim", func(o *runOptions) { o.Faults = "slow:1,2" }), want: []string{"fault schedule : slow:1,2 "}},
		{name: "sim crash", o: with("sim", func(o *runOptions) { o.Faults = "crash:1@5" }), refuse: "Sim cannot honour Options.Injector"},
		{name: "sim tol slow", o: with("sim", func(o *runOptions) { o.Tol, o.Faults = 2, "slow:1,2" }), want: []string{converged, "slow:1,2"}},
		{name: "sim repart slow", o: with("sim", func(o *runOptions) { o.Repart, o.Faults = true, "slow:1,2" }), want: []string{"slow:1,2", "repartitioning : 3 rounds, 1 plans applied"}},

		{name: "live tol", o: with("live", func(o *runOptions) { o.Tol = 2 }), want: []string{converged}},
		{name: "live repart", o: with("live", func(o *runOptions) { o.Repart = true }), want: []string{"repartitioning : 3 rounds"}},
		{name: "live drop", o: with("live", func(o *runOptions) { o.Faults = "drop:0.1" }), want: []string{"fault schedule : drop:0.1 ", "fault tolerance: 0 recoveries"}},
		{name: "live slow", o: with("live", func(o *runOptions) { o.Faults = "slow:1,2" }), want: []string{"fault schedule : slow:1,2 ", "fault tolerance: 0 recoveries"}},
		{name: "live crash", o: with("live", func(o *runOptions) { o.Faults = "crash:1@5" }), want: []string{"fault tolerance: 1 recoveries, failed ranks [1]"}},
		{name: "live tol faults", o: with("live", func(o *runOptions) { o.Tol, o.Faults = 2, "drop:0.1" }), refuse: "Live cannot honour Options.Tol"},
		{name: "live repart faults", o: with("live", func(o *runOptions) { o.Repart, o.Faults = true, "slow:1,2" }), refuse: "Live cannot honour Options.RebalanceEvery"},
	} {
		t.Run(c.name, func(t *testing.T) {
			out, err := runOut(t, c.o)
			if c.refuse != "" {
				if err == nil || !strings.Contains(err.Error(), c.refuse) {
					t.Fatalf("err = %v, want %q", err, c.refuse)
				}
				return
			}
			if err != nil {
				t.Fatalf("%v\n%s", err, out)
			}
			for _, s := range append(c.want, "verification   : distributed grid matches") {
				if !strings.Contains(out, s) {
					t.Errorf("output lacks %q:\n%s", s, out)
				}
			}
			for _, s := range c.not {
				if strings.Contains(out, s) {
					t.Errorf("output has %q:\n%s", s, out)
				}
			}
		})
	}
}

// TestRunDriftMonitorSimOnly: the drift monitor compares the sim runtime's
// cycles with the T_c predicted for the simulated testbed, and is not
// attached on live, whose -repart rounds all run on the interval. It
// watches T_c only: an idle STEN-1 run, whose ranks wait on their
// neighbours by different amounts, raises no event, and a slowed one
// raises cycle events. An idle STEN-1 run, at N = 300 (six ranks) and at
// N = 60 (two ranks on one segment), measures within 5 % of its estimate.
func TestRunDriftMonitorSimOnly(t *testing.T) {
	auto := runOptions{N: 240, Variant: "sten2", Iters: 40, P1: -1, P2: -1, Verify: true, Metrics: true}

	sim := auto
	sim.Runtime = "sim"
	out, err := runOut(t, sim)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "drift.pct{") {
		t.Errorf("sim run exports no drift.pct:\n%s", out)
	}

	for _, c := range []struct {
		n      int
		faults string
		events bool
	}{{300, "", false}, {300, "slow:1,4@5-40", true}, {60, "", false}} {
		sten1 := sim
		sten1.Variant, sten1.N, sten1.Faults = "sten1", c.n, c.faults
		sten1.TraceFile = filepath.Join(t.TempDir(), "sten1.jsonl")
		if out, err = runOut(t, sten1); err != nil {
			t.Fatal(err)
		}
		if c.faults == "" {
			if drift, ok := gauge(out, "stencil.drift_pct"); !ok || math.Abs(drift) > 5 {
				t.Errorf("N=%d idle: estimate drift %v%% (exported %t), want within 5%%\n%s", c.n, drift, ok, out)
			}
		}
		events := 0
		for _, ev := range readTrace(t, sten1.TraceFile) {
			if ev["type"] != "drift" {
				continue
			}
			events++
			if ev["component"] != "cycle" {
				t.Errorf("N=%d faults %q: drift event on %v, want cycle: %v", c.n, c.faults, ev["component"], ev)
			}
		}
		if (events > 0) != c.events {
			t.Errorf("N=%d faults %q: %d drift events, want any: %t\n%s", c.n, c.faults, events, c.events, out)
		}
	}

	live := auto
	live.Runtime, live.Repart, live.RepartEvery, live.RepartHorizon = "live", true, 4, 32
	live.TraceFile = filepath.Join(t.TempDir(), "live.jsonl")
	if out, err = runOut(t, live); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "drift.") {
		t.Errorf("live run exports a drift series:\n%s", out)
	}
	plans := 0
	for _, ev := range readTrace(t, live.TraceFile) {
		if ev["type"] == "drift" {
			t.Errorf("live run traced a drift event: %v", ev)
		}
		if ev["type"] != "repart" {
			continue
		}
		plans++
		if ev["reason"] != "interval" {
			t.Errorf("plan reason %v, want interval: %v", ev["reason"], ev)
		}
	}
	if plans == 0 {
		t.Error("live run recorded no plan")
	}
}

// gauge reads one gauge from a -metrics dump.
func gauge(out, name string) (float64, bool) {
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == name {
			v, err := strconv.ParseFloat(f[1], 64)
			return v, err == nil
		}
	}
	return 0, false
}

// TestRunAppliesFaultsAsWritten: the printed schedule is the one requested,
// windows, factors and probabilities included.
func TestRunAppliesFaultsAsWritten(t *testing.T) {
	out, err := runOut(t, runOptions{N: 48, Variant: "sten2", Iters: 8, P1: 3, P2: 0, Runtime: "sim", Verify: true,
		Faults: "slow:1,2@2-4; drop:0.5", FaultSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if want := "fault schedule : drop:0.5;slow:1,2@2-4 (seed 1)"; !strings.Contains(out, want) {
		t.Errorf("output lacks %q:\n%s", want, out)
	}
}

// TestRunRefusesFaultsOutsideTheRun: a clause naming a rank the run does
// not have, or starting at or after -iters, is refused by name, not moved
// into the run.
func TestRunRefusesFaultsOutsideTheRun(t *testing.T) {
	for faults, why := range map[string]string{
		"crash:5@100":         `"crash:5@100": rank 5, but the run has 3 tasks`,
		"crash:1@8":           `"crash:1@8": cycle 8, but the run has 8 iterations`,
		"drop:0.1;slow:3,2":   `"slow:3,2": rank 3, but the run has 3 tasks`,
		"slow:1,2@8-12":       `"slow:1,2@8-12": from cycle 8, but the run has 8 iterations`,
		"part:3@0-10;dup:0.1": `"part:3@0-10": cut at rank 3, but the run has 3 tasks`,
	} {
		for _, runtime := range []string{"sim", "live"} {
			_, err := runOut(t, runOptions{N: 48, Variant: "sten2", Iters: 8, P1: 3, P2: 0, Runtime: runtime, Verify: true,
				Faults: faults, FaultSeed: 1, Ckpt: 4})
			if err == nil || !strings.Contains(err.Error(), "-faults clause "+why) {
				t.Errorf("%s -faults %q: err = %v, want the clause refused: %s", runtime, faults, err, why)
			}
		}
	}
}

// TestRunRefusesRepartWithoutRounds: -repart-every 0 leaves the rounds to
// drift events, so a run that no drift monitor watches is refused, naming
// both flags, instead of running no round.
func TestRunRefusesRepartWithoutRounds(t *testing.T) {
	for _, runtime := range []string{"sim", "live"} {
		_, err := runOut(t, runOptions{N: 48, Variant: "sten2", Iters: 16, P1: 3, P2: 0, Runtime: runtime, Verify: true,
			Repart: true, RepartEvery: 0, RepartHorizon: 32, Faults: "slow:1,4", FaultSeed: 1})
		if err == nil || !strings.Contains(err.Error(), "-repart with -repart-every 0") {
			t.Errorf("%s: err = %v, want -repart with -repart-every 0 refused", runtime, err)
		}
	}
}
