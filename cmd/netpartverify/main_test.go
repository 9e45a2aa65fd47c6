package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"netpart/internal/analysis"
	"netpart/internal/analysis/protomc"
)

// The whole-tree tests and the benchmark share one loaded module:
// type-checking it from source costs seconds, checking its protocols
// milliseconds. TestMain fails the binary if typecheckModule ever ran
// twice.
var (
	moduleLoads atomic.Int32 // whole-module type-checks in this test binary
	module      struct {
		once sync.Once
		pkgs []*analysis.Package
		ip   *analysis.Interproc
		err  error
	}
)

// typecheckModule loads the whole module the way run would. Tests reach it
// through loadModule.
func typecheckModule() ([]*analysis.Package, *analysis.Interproc, error) {
	moduleLoads.Add(1)
	return analysis.LoadModule("./...")
}

// loadModule returns the shared module, loading it on first use, whatever
// the test order or the -run selection.
func loadModule(tb testing.TB) ([]*analysis.Package, *analysis.Interproc) {
	tb.Helper()
	module.once.Do(func() { module.pkgs, module.ip, module.err = typecheckModule() })
	if module.err != nil {
		tb.Fatal(module.err)
	}
	return module.pkgs, module.ip
}

func TestMain(m *testing.M) {
	code := m.Run()
	if n := moduleLoads.Load(); n > 1 {
		fmt.Fprintf(os.Stderr, "the module was type-checked %d times in one test binary; share loadModule's copy\n", n)
		code = 1
	}
	os.Exit(code)
}

// runModule is run over the shared module: the command line is parsed as
// run parses it, and the loaded packages are handed to the step run would
// hand its own to.
func runModule(t *testing.T, stdout *bytes.Buffer, args ...string) int {
	t.Helper()
	v, _, ok := parseArgs(args, stdout)
	if !ok {
		t.Fatalf("arguments %v rejected", args)
	}
	return v.verify(loadModule(t))
}

// jsonRecord mirrors record's wire form for decoding NDJSON output.
type jsonRecord struct {
	Protocol  string                `json:"protocol"`
	P         int                   `json:"p"`
	Sem       string                `json:"semantics"`
	Capacity  int                   `json:"capacity"`
	States    int                   `json:"states"`
	MaxQ      int                   `json:"max_in_flight"`
	Assign    string                `json:"assign"`
	Fn        string                `json:"fn"`
	Violation *protomc.Violation    `json:"violation"`
	Replay    *protomc.ReplayReport `json:"replay"`
	ReplayErr string                `json:"replay_error"`
}

// runJSON invokes the command with -json and decodes every record.
func runJSON(t *testing.T, args ...string) (int, []jsonRecord) {
	t.Helper()
	var buf bytes.Buffer
	code := run(append([]string{"-json"}, args...), &buf)
	return code, decodeRecords(t, &buf)
}

// decodeRecords decodes an NDJSON report.
func decodeRecords(t *testing.T, buf *bytes.Buffer) []jsonRecord {
	t.Helper()
	var recs []jsonRecord
	dec := json.NewDecoder(buf)
	for dec.More() {
		var r jsonRecord
		if err := dec.Decode(&r); err != nil {
			t.Fatalf("decoding NDJSON: %v", err)
		}
		recs = append(recs, r)
	}
	return recs
}

// TestRealProtocolsProved is the acceptance run: every lockstep protocol
// in the module must be deadlock-free and message-conserving at every P in
// 2..5 under the semantics its source claims. The repartitioning decision
// round, the migration plans, the FT recovery round and the converge
// reduction claim both rendezvous and bounded-buffer semantics; the cycle
// driver's halo exchange declares sem=buffered (the paper's order is a
// send-send cycle under rendezvous by design), so it must be proved at
// capacity 1 with at most one message in flight per channel, and must not
// be reported under rendezvous at all.
func TestRealProtocolsProved(t *testing.T) {
	if testing.Short() {
		t.Skip("explores the full module state space")
	}
	var out bytes.Buffer
	code := runModule(t, &out, "-json", "-p", "5")
	recs := decodeRecords(t, &out)
	if code != 0 {
		for _, r := range recs {
			if r.Violation != nil {
				t.Errorf("%s P=%d %s [%s]: %s", r.Protocol, r.P, r.Sem, r.Assign, r.Violation)
			}
		}
		t.Fatalf("exit code = %d, want 0", code)
	}
	both := []string{"rendezvous", "buffered"}
	wantSems := map[string][]string{
		"stencil.rankState.cycles": {"buffered"},
		"stencil.reduceMax":        both,
		"repart.Engine.Round":      both,
		"repart.Migrator.Migrate":  both,
		"stencil.ftTask.recover":   both,
	}
	perP := map[string]map[int]map[string]bool{}
	for _, r := range recs {
		name := strings.NewReplacer("(", "", ")", "", "*", "").Replace(r.Fn)
		if _, ok := wantSems[name]; !ok {
			continue
		}
		if perP[name] == nil {
			perP[name] = map[int]map[string]bool{}
		}
		if perP[name][r.P] == nil {
			perP[name][r.P] = map[string]bool{}
		}
		perP[name][r.P][r.Sem] = true
		if name == "stencil.rankState.cycles" && (r.Capacity != 1 || r.MaxQ > 1) {
			t.Errorf("%s P=%d [%s]: capacity %d, max in flight %d; want capacity 1 to suffice", name, r.P, r.Assign, r.Capacity, r.MaxQ)
		}
	}
	for name, sems := range wantSems {
		if perP[name] == nil {
			t.Errorf("protocol %s was not verified", name)
			continue
		}
		for p := 2; p <= 5; p++ {
			if len(perP[name][p]) != len(sems) {
				t.Errorf("%s at P=%d checked under %v, want exactly %v", name, p, perP[name][p], sems)
			}
			for _, sem := range sems {
				if !perP[name][p][sem] {
					t.Errorf("%s missing a check at P=%d under %s", name, p, sem)
				}
			}
		}
	}
}

// TestDeclaredBufferedIsSkippedNotPassed pins the text report's wording for
// a sem=buffered function: its rendezvous rows say skip, never ok.
func TestDeclaredBufferedIsSkippedNotPassed(t *testing.T) {
	if testing.Short() {
		t.Skip("typechecks the whole module from source")
	}
	var buf bytes.Buffer
	if code := runModule(t, &buf, "-p", "2"); code != 0 {
		t.Fatalf("exit code = %d, want 0\n%s", code, buf.String())
	}
	var skip, okBuffered bool
	for _, line := range strings.Split(buf.String(), "\n") {
		if !strings.Contains(line, "cycles") {
			continue
		}
		switch {
		case strings.HasPrefix(line, "skip ") && strings.Contains(line, "rendezvous") && strings.Contains(line, "(declared buffered)"):
			skip = true
		case strings.HasPrefix(line, "ok ") && strings.Contains(line, "buffered") && strings.Contains(line, "maxq=1"):
			okBuffered = true
		default:
			t.Errorf("unexpected report line for the cycle driver: %q", line)
		}
	}
	if !skip || !okBuffered {
		t.Errorf("want one skip (rendezvous) and one ok (buffered) line for the cycle driver, got:\n%s", buf.String())
	}
}

// TestUnknownDeclaredSemantics: a directive naming semantics the checker
// does not know is a load error, not a protocol checked under the default.
func TestUnknownDeclaredSemantics(t *testing.T) {
	var buf bytes.Buffer
	if code := run([]string{"-p", "2", "./cmd/netpartverify/testdata/badsem"}, &buf); code != 2 {
		t.Errorf("sem=bogus: exit %d, want 2\n%s", code, buf.String())
	}
}

// fixturePattern addresses the seeded-bug package relative to the module
// root, which the loader resolves from any working directory.
const fixturePattern = "./cmd/netpartverify/testdata/protofix"

// TestSeededUnmatchedSend finds the conditional-send bug at the smallest
// world: a deadlock whose schedule is the single branch step that skips
// the send, confirmed by simnet replay.
func TestSeededUnmatchedSend(t *testing.T) {
	code, recs := runJSON(t, "-p", "2", fixturePattern)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	found := false
	for _, r := range recs {
		if !strings.Contains(r.Protocol, "UnmatchedSend") || r.Violation == nil {
			continue
		}
		found = true
		v := r.Violation
		if v.Kind != "deadlock" {
			t.Errorf("kind = %s, want deadlock", v.Kind)
		}
		if len(v.Steps) != 1 || v.Steps[0].Action != "branch" {
			t.Errorf("schedule not minimal: %v", v.Steps)
		}
		if r.Replay == nil || !r.Replay.Confirmed {
			t.Errorf("replay did not confirm: %+v (err %q)", r.Replay, r.ReplayErr)
		}
	}
	if !found {
		t.Fatal("UnmatchedSend produced no violation")
	}
}

// TestSeededRecvCycle requires the cycle to be invisible at P=2 and a
// confirmed deadlock at P=3: a checker that stops at the smallest world
// would pass this protocol.
func TestSeededRecvCycle(t *testing.T) {
	code, recs := runJSON(t, "-p", "3", fixturePattern)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	at := map[int]bool{}
	for _, r := range recs {
		if !strings.Contains(r.Protocol, "RecvCycle") {
			continue
		}
		if r.Violation != nil {
			at[r.P] = true
			if r.Violation.Kind != "deadlock" {
				t.Errorf("P=%d kind = %s, want deadlock", r.P, r.Violation.Kind)
			}
			if r.Replay == nil || !r.Replay.Confirmed {
				t.Errorf("P=%d replay did not confirm: %+v", r.P, r.Replay)
			}
			for _, b := range r.Violation.Blocked {
				if !strings.Contains(b, "receiving") {
					t.Errorf("blocked rank is not receive-blocked: %s", b)
				}
			}
		}
	}
	if at[2] {
		t.Error("RecvCycle violated at P=2; the cycle must need three ranks")
	}
	if !at[3] {
		t.Error("RecvCycle produced no violation at P=3")
	}
}

// TestSeededDoubleSend requires the buffer-exhaustion deadlock at
// capacity 1 under both semantics, and a clean buffered pass at capacity
// 2 whose max-in-flight report shows why 2 suffices.
func TestSeededDoubleSend(t *testing.T) {
	code, recs := runJSON(t, "-p", "2", fixturePattern)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	bySem := map[string]*jsonRecord{}
	for i, r := range recs {
		if strings.Contains(r.Protocol, "DoubleSend") && r.P == 2 {
			bySem[r.Sem] = &recs[i]
		}
	}
	for _, sem := range []string{"rendezvous", "buffered"} {
		r := bySem[sem]
		if r == nil || r.Violation == nil {
			t.Errorf("no violation under %s", sem)
			continue
		}
		if r.Violation.Kind != "deadlock" {
			t.Errorf("%s kind = %s, want deadlock", sem, r.Violation.Kind)
		}
		if r.Replay == nil || !r.Replay.Confirmed {
			t.Errorf("%s replay did not confirm: %+v", sem, r.Replay)
		}
		if sem == "buffered" && len(r.Replay.BlockedSends) != 2 {
			t.Errorf("blocked sends = %v, want both ranks", r.Replay.BlockedSends)
		}
	}

	// Capacity 2 is sufficient: the buffered check passes and reports the
	// occupancy bound that proves it tight.
	code, recs = runJSON(t, "-p", "2", "-sem", "buffered", "-cap", "2", fixturePattern)
	for _, r := range recs {
		if strings.Contains(r.Protocol, "DoubleSend") {
			if r.Violation != nil {
				t.Errorf("capacity 2 still violates: %s", r.Violation)
			}
			if r.MaxQ != 2 {
				t.Errorf("max_in_flight = %d, want 2", r.MaxQ)
			}
		}
	}
	if code != 1 {
		t.Errorf("exit code = %d, want 1 (the other fixtures still fail)", code)
	}
}

// TestHubRounds covers the hub-and-peer rounds of rounds.go. The round
// done right verifies clean at every P under both semantics; each seeded
// defect yields a counterexample of the kind it is, confirmed by simnet
// replay.
func TestHubRounds(t *testing.T) {
	code, recs := runJSON(t, "-p", "3", fixturePattern)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	// lostRound blocks on its unmatched sends under rendezvous and ends with
	// them queued under buffering; peerSkew's decode mismatch needs the
	// message delivered, so it shows under buffering.
	wantKinds := map[string][]string{
		"lostRound":     {"deadlock", "leftover"},
		"selfRound":     {"bad-peer"},
		"deadlockRound": {"deadlock"},
		"peerSkew":      {"skew"},
	}
	clean, confirmed := 0, map[string]map[string]bool{}
	for _, r := range recs {
		name := strings.TrimPrefix(r.Protocol, "protofix.")
		if name == "goodRound" {
			if r.Violation != nil {
				t.Errorf("goodRound P=%d %s: %s", r.P, r.Sem, r.Violation)
			}
			clean++
		}
		if wantKinds[name] == nil || r.Violation == nil {
			continue
		}
		if r.Replay == nil || !r.Replay.Confirmed {
			t.Errorf("%s P=%d %s: replay did not confirm: %+v (err %q)", name, r.P, r.Sem, r.Replay, r.ReplayErr)
			continue
		}
		if confirmed[name] == nil {
			confirmed[name] = map[string]bool{}
		}
		confirmed[name][r.Violation.Kind] = true
		if name == "selfRound" && !strings.Contains(r.Violation.Detail, "to itself") {
			t.Errorf("selfRound P=%d %s: %s; want a send to itself", r.P, r.Sem, r.Violation.Detail)
		}
	}
	if clean != 4 {
		t.Errorf("goodRound checked %d times, want 4 (P=2,3 x both semantics)", clean)
	}
	for name, kinds := range wantKinds {
		for _, kind := range kinds {
			if !confirmed[name][kind] {
				t.Errorf("%s: no confirmed %s counterexample; got %v", name, kind, confirmed[name])
			}
		}
	}
}

// TestUnextractableIsRefused: netpartverify is the only checker of
// //netpart:lockstep functions, so one it cannot extract fails the run
// (exit 1) instead of passing unchecked.
func TestUnextractableIsRefused(t *testing.T) {
	code, recs := runJSON(t, "-p", "2", "./cmd/netpartverify/testdata/unextractable")
	if code != 1 {
		t.Errorf("exit code = %d, want 1", code)
	}
	if len(recs) != 0 {
		t.Errorf("%d checks ran on an unextractable protocol, want none", len(recs))
	}
}

// TestTraceDir writes counterexample trace files for artifact upload: one
// JSON file per violation, each holding the schedule and replay report.
func TestTraceDir(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	code := run([]string{"-p", "2", "-trace-dir", dir, fixturePattern}, &buf)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("no trace files written")
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		var r jsonRecord
		if err := json.Unmarshal(data, &r); err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		if r.Violation == nil {
			t.Errorf("%s: trace has no violation", e.Name())
		}
	}
}

// TestUsageErrors exercises the exit-2 paths.
func TestUsageErrors(t *testing.T) {
	var buf bytes.Buffer
	if code := run([]string{"-sem", "psychic"}, &buf); code != 2 {
		t.Errorf("bad -sem: exit %d, want 2", code)
	}
	if code := run([]string{"-p", "1"}, &buf); code != 2 {
		t.Errorf("bad -p: exit %d, want 2", code)
	}
}

// TestUnknownBuiltinModel rejects a directive naming a model the command
// does not implement, instead of verifying nothing vacuously.
func TestUnknownBuiltinModel(t *testing.T) {
	if _, err := builtinSystems("no-such-model", 3); err == nil {
		t.Fatal("unknown model accepted")
	}
}

// BenchmarkProtoVerify measures the exhaustive check of every builtin and
// extracted protocol instance at P=4 under the semantics it claims — the
// unit TestProtoVerifyLatencyBudget guards. Extraction runs once outside
// the loop: the checker, not the loader, is the hot path.
func BenchmarkProtoVerify(b *testing.B) {
	op := protoVerifyOp(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// protoVerifyOp checks every protocol instance at P=4 once.
func protoVerifyOp(tb testing.TB) func() {
	pkgs, ip := loadModule(tb)
	protos, diags, err := analysis.ExtractProtos(pkgs, ip)
	if err != nil || len(diags) > 0 {
		tb.Fatalf("extraction: %v %v", err, diags)
	}
	type unit struct {
		sys  *protomc.System
		sems []protomc.Semantics
	}
	var systems []unit
	for _, lp := range protos {
		sems := []protomc.Semantics{protomc.Rendezvous, protomc.Buffered}
		if lp.Buffered {
			sems = sems[1:]
		}
		batch, err := systemsAt(lp, 4)
		if err != nil {
			tb.Fatal(err)
		}
		for _, sys := range batch {
			systems = append(systems, unit{sys, sems})
		}
	}
	if len(systems) == 0 {
		tb.Fatal("no systems to check")
	}
	return func() {
		for _, u := range systems {
			for _, sem := range u.sems {
				res, err := protomc.Check(u.sys, protomc.Config{Sem: sem})
				if err != nil {
					tb.Fatal(err)
				}
				if !res.OK() {
					tb.Fatalf("%s: %s", u.sys.Name, res.Violation)
				}
			}
		}
	}
}

// TestProtoVerifyLatencyBudget holds the full protocol-verification sweep
// at P=4 within 25 ms, fast enough to run on every push. It takes the
// fastest of five runs, so a busy machine can slow a run but not fail the
// test, and skips under -race, where it would time the detector.
func TestProtoVerifyLatencyBudget(t *testing.T) {
	if raceDetector() {
		t.Skip("the race detector slows the checker")
	}
	op := protoVerifyOp(t)
	best := time.Duration(1<<63 - 1)
	for i := 0; i < 5; i++ {
		start := time.Now()
		op()
		best = min(best, time.Since(start))
	}
	t.Logf("%v, fastest of 5", best)
	if best > 25*time.Millisecond {
		t.Errorf("%v per sweep, budget 25ms", best)
	}
}

// raceDetector reports whether this test binary was built with -race.
func raceDetector() bool {
	bi, _ := debug.ReadBuildInfo()
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}
