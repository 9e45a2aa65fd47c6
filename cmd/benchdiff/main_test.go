package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: netpart
cpu: some shared runner
BenchmarkPartitionOverhead-8   	  142608	      8109 ns/op	     818 B/op	      29 allocs/op
BenchmarkTable2Elapsed-8       	       2	 512345678 ns/op	 1234567 B/op	    4321 allocs/op
PASS
ok  	netpart	3.456s
pkg: netpart/internal/core
BenchmarkEstimateObserver/disabled-8 	 2745732	       434.4 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	netpart/internal/core	1.234s
`

func TestParseBench(t *testing.T) {
	snap, err := parseBench(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(snap) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3: %v", len(snap), snap)
	}
	po, ok := snap["netpart/BenchmarkPartitionOverhead"]
	if !ok {
		t.Fatalf("missing package-qualified PartitionOverhead key in %v", snap)
	}
	if po.NsPerOp != 8109 || po.BytesPerOp != 818 || po.AllocsPerOp != 29 || !po.HaveMem {
		t.Fatalf("PartitionOverhead metrics = %+v", po)
	}
	eo, ok := snap["netpart/internal/core/BenchmarkEstimateObserver/disabled"]
	if !ok {
		t.Fatalf("missing sub-benchmark key in %v", snap)
	}
	if eo.NsPerOp != 434.4 || eo.AllocsPerOp != 0 || !eo.HaveMem {
		t.Fatalf("EstimateObserver metrics = %+v", eo)
	}
}

func TestParseBenchWithThroughputColumn(t *testing.T) {
	// b.SetBytes adds an MB/s column between ns/op and the -benchmem
	// columns, b.ReportMetric one per unit; the parser must skip them.
	snap, err := parseBench(strings.NewReader(
		"pkg: netpart/internal/stencil\nBenchmarkStencilKernel-8   200   45997 ns/op   10017.50 MB/s   0 B/op   0 allocs/op\n" +
			"BenchmarkBlockSweep/16x64-2   2097612   591.1 ns/op   111.0 MB/s   0.5772 ns/pt   0 B/op   3 allocs/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if m := snap["netpart/internal/stencil/BenchmarkBlockSweep/16x64"]; m.NsPerOp != 591.1 || m.AllocsPerOp != 3 || !m.HaveMem {
		t.Fatalf("metrics behind a custom column = %+v, want ns=591.1 allocs=3 HaveMem", m)
	}
	m, ok := snap["netpart/internal/stencil/BenchmarkStencilKernel"]
	if !ok {
		t.Fatalf("missing key in %v", snap)
	}
	if m.NsPerOp != 45997 || m.AllocsPerOp != 0 || !m.HaveMem {
		t.Fatalf("metrics = %+v, want ns=45997 allocs=0 HaveMem", m)
	}
}

func TestParseBenchWithoutBenchmem(t *testing.T) {
	snap, err := parseBench(strings.NewReader("pkg: p\nBenchmarkX-4   100   250 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	m := snap["p/BenchmarkX"]
	if m.NsPerOp != 250 || m.HaveMem {
		t.Fatalf("metrics = %+v, want ns only", m)
	}
}

func TestCompareFlagsRegressions(t *testing.T) {
	base := Snapshot{
		"p/BenchmarkSlow":  {NsPerOp: 1000, AllocsPerOp: 10, HaveMem: true},
		"p/BenchmarkAlloc": {NsPerOp: 1000, AllocsPerOp: 0, HaveMem: true},
		"p/BenchmarkFine":  {NsPerOp: 1000, AllocsPerOp: 10, HaveMem: true},
		"p/BenchmarkFast":  {NsPerOp: 1000, AllocsPerOp: 10, HaveMem: true},
		"p/BenchmarkGone":  {NsPerOp: 1000, HaveMem: false},
	}
	cur := Snapshot{
		"p/BenchmarkSlow":  {NsPerOp: 1500, AllocsPerOp: 10, HaveMem: true}, // +50% time
		"p/BenchmarkAlloc": {NsPerOp: 1000, AllocsPerOp: 1, HaveMem: true},  // zero-alloc guarantee broken
		"p/BenchmarkFine":  {NsPerOp: 1100, AllocsPerOp: 11, HaveMem: true}, // within threshold
		"p/BenchmarkFast":  {NsPerOp: 400, AllocsPerOp: 2, HaveMem: true},   // improvement
		"p/BenchmarkNew":   {NsPerOp: 5, HaveMem: false},                    // only in current: ignored
	}
	findings := compare(base, cur, 0.30)
	regressed := map[string]bool{}
	improved := 0
	for _, f := range findings {
		if f.Regressed {
			regressed[f.Name+" "+f.Metric] = true
		} else {
			improved++
		}
	}
	if !regressed["p/BenchmarkSlow ns/op"] {
		t.Errorf("missing ns/op regression for BenchmarkSlow: %v", findings)
	}
	if !regressed["p/BenchmarkAlloc allocs/op"] {
		t.Errorf("zero-alloc baseline growing to 1 alloc must regress: %v", findings)
	}
	if len(regressed) != 2 {
		t.Errorf("got regressions %v, want exactly 2", regressed)
	}
	if improved != 2 { // BenchmarkFast improves on both metrics
		t.Errorf("got %d improvements, want 2: %v", improved, findings)
	}
}

// TestCompareExitCode is the acceptance check: a synthetic injected
// regression must make `benchdiff compare` exit non-zero, and -soft must
// downgrade the same regression to a warning (exit 0).
func TestCompareExitCode(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, s Snapshot) string {
		data, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", Snapshot{"p/BenchmarkX": {NsPerOp: 100, AllocsPerOp: 5, HaveMem: true}})
	bad := write("bad.json", Snapshot{"p/BenchmarkX": {NsPerOp: 300, AllocsPerOp: 5, HaveMem: true}})
	good := write("good.json", Snapshot{"p/BenchmarkX": {NsPerOp: 101, AllocsPerOp: 5, HaveMem: true}})

	var out strings.Builder
	code, err := runCompare([]string{base, bad}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code == 0 {
		t.Fatalf("synthetic regression exited 0; output:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "REGRESSED") {
		t.Fatalf("regression not reported:\n%s", out.String())
	}

	out.Reset()
	code, err = runCompare([]string{"-soft", base, bad}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("-soft exited %d, want 0; output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "REGRESSED") {
		t.Fatalf("-soft must still report the regression:\n%s", out.String())
	}

	out.Reset()
	code, err = runCompare([]string{base, good}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("clean comparison exited %d, want 0; output:\n%s", code, out.String())
	}
}

func TestRunParseRoundTrip(t *testing.T) {
	var out strings.Builder
	if err := runParse(nil, strings.NewReader(sampleOutput), &out); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(out.String()), &snap); err != nil {
		t.Fatalf("parse output is not valid JSON: %v\n%s", err, out.String())
	}
	if snap["netpart/BenchmarkPartitionOverhead"].AllocsPerOp != 29 {
		t.Fatalf("round-trip lost metrics: %v", snap)
	}
}

func TestRunParseEmptyInput(t *testing.T) {
	var out strings.Builder
	if err := runParse(nil, strings.NewReader("no benchmarks here\n"), &out); err == nil {
		t.Fatal("empty input must error")
	}
}

func f64(v float64) *float64 { return &v }

func TestGateVerdicts(t *testing.T) {
	policy := Policy{
		"p/BenchmarkZeroAlloc": {MaxAllocsPerOp: f64(0)},
		"p/BenchmarkLatency":   {MaxNsPerOp: f64(1e6)},
		"p/BenchmarkMissing":   {MaxNsPerOp: f64(1)},
		"p/BenchmarkNoMem":     {MaxAllocsPerOp: f64(0)},
	}
	snap := Snapshot{
		"p/BenchmarkZeroAlloc": {NsPerOp: 500, AllocsPerOp: 0, HaveMem: true},
		"p/BenchmarkLatency":   {NsPerOp: 2e6},
		"p/BenchmarkNoMem":     {NsPerOp: 100},
	}
	lines, violations := gate(policy, snap, nil)
	joined := strings.Join(lines, "\n")
	if violations != 3 {
		t.Fatalf("gate found %d violations, want 3:\n%s", violations, joined)
	}
	for _, want := range []string{
		"ok   p/BenchmarkZeroAlloc",
		"FAIL p/BenchmarkLatency",
		"FAIL p/BenchmarkMissing: missing from snapshot",
		"FAIL p/BenchmarkNoMem",
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("gate output lacks %q:\n%s", want, joined)
		}
	}
}

func TestGateAllocRegression(t *testing.T) {
	policy := Policy{"p/BenchmarkZeroAlloc": {MaxAllocsPerOp: f64(0)}}
	snap := Snapshot{"p/BenchmarkZeroAlloc": {NsPerOp: 500, AllocsPerOp: 2, HaveMem: true}}
	if _, violations := gate(policy, snap, nil); violations != 1 {
		t.Fatalf("broken zero-alloc guarantee found %d violations, want 1", violations)
	}
}

// TestGateBytesBudget: a bytes/op ceiling passes below it, fails above it,
// and — like the allocs/op one — fails on a snapshot without -benchmem.
func TestGateBytesBudget(t *testing.T) {
	policy := Policy{"p/BenchmarkPass": {MaxBytesPerOp: f64(450e6)}}
	for _, tc := range []struct {
		m          Metrics
		violations int
		want       string
	}{
		{Metrics{NsPerOp: 1, BytesPerOp: 314e6, HaveMem: true}, 0, "ok   p/BenchmarkPass: 3.14e+08 B/op within budget 4.5e+08"},
		{Metrics{NsPerOp: 1, BytesPerOp: 1e9, HaveMem: true}, 1, "FAIL p/BenchmarkPass: 1e+09 B/op exceeds budget 4.5e+08"},
		{Metrics{NsPerOp: 1}, 1, "FAIL p/BenchmarkPass: B/op budget set but snapshot lacks -benchmem columns"},
	} {
		lines, violations := gate(policy, Snapshot{"p/BenchmarkPass": tc.m}, nil)
		if violations != tc.violations || len(lines) != 1 || lines[0] != tc.want {
			t.Errorf("%+v: %d violations %q, want %d %q", tc.m, violations, lines, tc.violations, tc.want)
		}
	}
}

func TestRunGateExitCode(t *testing.T) {
	dir := t.TempDir()
	writeJSON := func(name string, v any) string {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	policy := writeJSON("policy.json", Policy{"p/BenchmarkX": {MaxNsPerOp: f64(1000), MaxAllocsPerOp: f64(0)}})
	good := writeJSON("good.json", Snapshot{"p/BenchmarkX": {NsPerOp: 900, AllocsPerOp: 0, HaveMem: true}})
	bad := writeJSON("bad.json", Snapshot{"p/BenchmarkX": {NsPerOp: 900, AllocsPerOp: 1, HaveMem: true}})

	var out strings.Builder
	code, err := runGate([]string{"-policy", policy, good}, &out)
	if err != nil || code != 0 {
		t.Fatalf("clean gate: code %d err %v; output:\n%s", code, err, out.String())
	}
	out.Reset()
	code, err = runGate([]string{"-policy", policy, bad}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 1 {
		t.Fatalf("violating gate exited %d, want 1; output:\n%s", code, out.String())
	}
}

// TestCommittedPolicyGatesCurrentBenchmarks keeps BENCH_policy.json and
// BENCH_baseline.json coherent: every policy entry must exist in the
// committed baseline and the baseline itself must satisfy every budget, so
// a benchmark rename or a budget-breaking baseline refresh fails here
// before it confuses CI.
func TestCommittedPolicyGatesCurrentBenchmarks(t *testing.T) {
	policy, err := loadPolicy(filepath.Join("..", "..", "BENCH_policy.json"))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := loadSnapshot(filepath.Join("..", "..", "BENCH_baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	annotated, err := hotpathAnnotated(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	lines, violations := gate(policy, snap, annotated)
	if violations != 0 {
		t.Fatalf("committed baseline violates committed policy:\n%s", strings.Join(lines, "\n"))
	}
}

// TestGateHotpathAnchors pins the -hotpath-src cross-check: a zero-alloc
// budget must name annotated functions, and an anchor that lost its
// //netpart:hotpath annotation (rename, move, or de-annotation) is a
// violation.
func TestGateHotpathAnchors(t *testing.T) {
	policy := Policy{
		"p/BenchmarkAnchored":   {MaxAllocsPerOp: f64(0), Hotpath: []string{"internal/x.Fast", "internal/x.(T).fill"}},
		"p/BenchmarkUnanchored": {MaxAllocsPerOp: f64(0)},
		"p/BenchmarkStale":      {MaxAllocsPerOp: f64(0), Hotpath: []string{"internal/x.Gone"}},
		"p/BenchmarkLatency":    {MaxNsPerOp: f64(1e9)}, // no zero-alloc ceiling: anchors optional
	}
	snap := Snapshot{
		"p/BenchmarkAnchored":   {NsPerOp: 10, AllocsPerOp: 0, HaveMem: true},
		"p/BenchmarkUnanchored": {NsPerOp: 10, AllocsPerOp: 0, HaveMem: true},
		"p/BenchmarkStale":      {NsPerOp: 10, AllocsPerOp: 0, HaveMem: true},
		"p/BenchmarkLatency":    {NsPerOp: 10},
	}
	annotated := map[string]bool{"internal/x.Fast": true, "internal/x.(T).fill": true}
	lines, violations := gate(policy, snap, annotated)
	joined := strings.Join(lines, "\n")
	if violations != 2 {
		t.Fatalf("gate found %d violations, want 2 (unanchored + stale):\n%s", violations, joined)
	}
	for _, want := range []string{
		"ok   p/BenchmarkAnchored: anchor internal/x.Fast",
		"FAIL p/BenchmarkUnanchored: zero-alloc budget lists no hotpath anchors",
		"FAIL p/BenchmarkStale: anchor internal/x.Gone has no //netpart:hotpath annotation",
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("gate output lacks %q:\n%s", want, joined)
		}
	}
	// Without -hotpath-src (nil set) the anchor checks are skipped.
	if _, v := gate(policy, snap, nil); v != 0 {
		t.Errorf("anchor checks must be skipped without a source scan, got %d violations", v)
	}
}

// TestHotpathAnnotatedScan exercises the parser-only source scan on a
// synthetic tree: functions and methods are keyed by relative package
// directory, testdata and _test.go files are skipped.
func TestHotpathAnnotatedScan(t *testing.T) {
	dir := t.TempDir()
	write := func(rel, src string) {
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("internal/x/x.go", `package x

//netpart:hotpath
func Fast() {}

type T struct{}

// fill is hot.
//
//netpart:hotpath
func (t *T) fill() {}

func cold() {}
`)
	write("root.go", `package root

//netpart:hotpath
func Top() {}
`)
	write("internal/x/x_test.go", `package x

//netpart:hotpath
func testOnly() {}
`)
	write("internal/x/testdata/fix.go", `package fix

//netpart:hotpath
func fixture() {}
`)
	got, err := hotpathAnnotated(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"internal/x.Fast", "internal/x.(T).fill", "Top"} {
		if !got[want] {
			t.Errorf("scan missed %s; got %v", want, got)
		}
	}
	for _, bad := range []string{"internal/x.cold", "internal/x.testOnly", "internal/x/testdata.fixture"} {
		if got[bad] {
			t.Errorf("scan must not include %s", bad)
		}
	}
}

// TestCompareJSON pins the machine-readable form of `compare -json`
// against the same synthetic regression the exit-code test injects: one
// JSON document whose findings carry the regression verdicts, with the
// exit-code contract unchanged.
func TestCompareJSON(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, s Snapshot) string {
		data, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", Snapshot{
		"p/BenchmarkSlow":  {NsPerOp: 1000, AllocsPerOp: 10, HaveMem: true},
		"p/BenchmarkAlloc": {NsPerOp: 1000, AllocsPerOp: 0, HaveMem: true},
		"p/BenchmarkFine":  {NsPerOp: 1000, AllocsPerOp: 10, HaveMem: true},
	})
	cur := write("cur.json", Snapshot{
		"p/BenchmarkSlow":  {NsPerOp: 1500, AllocsPerOp: 10, HaveMem: true}, // +50% time
		"p/BenchmarkAlloc": {NsPerOp: 1000, AllocsPerOp: 1, HaveMem: true},  // zero-alloc broken
		"p/BenchmarkFine":  {NsPerOp: 1100, AllocsPerOp: 11, HaveMem: true}, // within threshold
	})

	var out strings.Builder
	code, err := runCompare([]string{"-json", base, cur}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 1 {
		t.Fatalf("exit code = %d, want 1; output:\n%s", code, out.String())
	}
	var rep CompareReport
	if err := json.Unmarshal([]byte(out.String()), &rep); err != nil {
		t.Fatalf("output is not one JSON document: %v\n%s", err, out.String())
	}
	if rep.Compared != 3 || rep.Regressions != 2 || rep.Threshold != 0.30 {
		t.Errorf("summary = %+v, want compared=3 regressions=2 threshold=0.3", rep)
	}
	want := map[string]bool{
		"p/BenchmarkSlow ns/op":      true,
		"p/BenchmarkAlloc allocs/op": true,
	}
	for _, f := range rep.Findings {
		if f.Regressed != want[f.Name+" "+f.Metric] {
			t.Errorf("finding %+v has wrong verdict", f)
		}
		if f.Cur <= 0 {
			t.Errorf("finding %+v lost its measurements", f)
		}
	}
	if len(rep.Findings) != 2 {
		t.Errorf("got %d findings, want 2: %+v", len(rep.Findings), rep.Findings)
	}

	// A clean comparison still emits a well-formed document with an empty
	// findings array, not null.
	out.Reset()
	code, err = runCompare([]string{"-json", base, base}, &out)
	if err != nil || code != 0 {
		t.Fatalf("clean compare: code=%d err=%v", code, err)
	}
	if !strings.Contains(out.String(), `"findings": []`) {
		t.Errorf("empty findings must serialize as [], got:\n%s", out.String())
	}
}
