// Command benchdiff turns `go test -bench -benchmem` output into a JSON
// snapshot and compares two snapshots for regressions. It is the guard rail
// behind BENCH_baseline.json: CI (and developers) regenerate a snapshot and
// diff it against the committed baseline.
//
// Usage:
//
//	go test -bench . -benchmem ./... | benchdiff parse > BENCH_pr.json
//	benchdiff compare [-threshold 0.30] [-soft] [-json] BENCH_baseline.json BENCH_pr.json
//	benchdiff gate [-policy BENCH_policy.json] [-hotpath-src .] BENCH_pr.json
//
// compare exits 1 when any benchmark present in both snapshots regressed
// beyond the threshold in time (ns/op) or allocations (allocs/op); -soft
// downgrades regressions to warnings (exit 0), the mode CI uses on shared
// noisy runners. -json replaces the text report with one JSON document
// (compared, regressions, threshold, findings) so tooling can consume the
// verdict without scraping; the exit-code contract is unchanged.
//
// gate enforces absolute per-benchmark budgets from a committed policy
// file instead of diffing against a baseline: each entry names a hard
// ns/op, allocs/op and/or B/op ceiling, and a policy benchmark missing from
// the snapshot is itself a failure. Unlike compare, gate has no soft mode —
// the budgets are chosen loose enough (latency) or exact (zero-alloc
// guarantees and bytes allocated, which shared-runner noise cannot
// perturb) to hard-fail CI.
//
// With -hotpath-src, gate additionally ties the dynamic zero-alloc
// budgets to the static allocfree proof: each policy entry may list the
// functions its benchmark exercises under "hotpath" (anchor form
// "internal/core.(Estimator).Estimate" — package directory relative to
// the source root, then the receiver-qualified name), every listed
// function must carry a //netpart:hotpath annotation in the tree (so
// netpartlint's interprocedural allocfree analyzer proves it), and every
// zero-alloc budget must list at least one anchor. De-annotating,
// renaming, or moving a hot function then fails the gate instead of
// silently orphaning its budget.
//
//netpart:deterministic
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Metrics is one benchmark's measurement.
type Metrics struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	// HaveMem records whether -benchmem columns were present (a zero
	// allocs/op is meaningful only when they were).
	HaveMem bool `json:"have_mem,omitempty"`
}

// Snapshot maps "package/BenchmarkName" to its metrics.
type Snapshot map[string]Metrics

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "parse":
		if err := runParse(os.Args[2:], os.Stdin, os.Stdout); err != nil {
			fatal(err)
		}
	case "compare":
		code, err := runCompare(os.Args[2:], os.Stdout)
		if err != nil {
			fatal(err)
		}
		os.Exit(code)
	case "gate":
		code, err := runGate(os.Args[2:], os.Stdout)
		if err != nil {
			fatal(err)
		}
		os.Exit(code)
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: benchdiff parse [bench-output-file] | benchdiff compare [-threshold 0.30] [-soft] baseline.json current.json | benchdiff gate [-policy policy.json] current.json")
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchdiff:", err)
	os.Exit(2)
}

func runParse(args []string, stdin io.Reader, out io.Writer) error {
	fs := flag.NewFlagSet("parse", flag.ExitOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	in := stdin
	if fs.NArg() > 0 {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	snap, err := parseBench(in)
	if err != nil {
		return err
	}
	if len(snap) == 0 {
		return fmt.Errorf("no benchmark lines found in input")
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(snap)
}

// benchLine matches e.g.
//
//	BenchmarkPartitionOverhead-8   200   8109 ns/op   818 B/op   29 allocs/op
//	BenchmarkStencilKernel-8       200   45997 ns/op  10017.50 MB/s  0 B/op  0 allocs/op
//
//	BenchmarkBlockSweep/16x64-8    200   591.1 ns/op   0.5772 ns/pt    0 B/op  0 allocs/op
//
// The MB/s column appears when a benchmark calls b.SetBytes, and any columns
// it adds with b.ReportMetric come before the memory pair too.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op(?:.*?\s([\d.]+) B/op\s+([\d.]+) allocs/op)?`)

// parseBench extracts benchmark results from `go test -bench` output,
// keying each by the enclosing package (the "pkg:" header lines) plus the
// benchmark name with the GOMAXPROCS suffix stripped.
func parseBench(r io.Reader) (Snapshot, error) {
	snap := Snapshot{}
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "pkg: "); ok {
			pkg = strings.TrimSpace(rest)
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		var met Metrics
		met.NsPerOp, _ = strconv.ParseFloat(m[2], 64)
		if m[3] != "" {
			met.BytesPerOp, _ = strconv.ParseFloat(m[3], 64)
			met.AllocsPerOp, _ = strconv.ParseFloat(m[4], 64)
			met.HaveMem = true
		}
		key := m[1]
		if pkg != "" {
			key = pkg + "/" + key
		}
		snap[key] = met
	}
	return snap, sc.Err()
}

// Finding is one comparison outcome worth reporting. The JSON field names
// are the machine-readable contract of `compare -json`.
type Finding struct {
	Name   string  `json:"name"`
	Metric string  `json:"metric"` // "ns/op" or "allocs/op"
	Base   float64 `json:"base"`
	Cur    float64 `json:"current"`
	// Regressed marks findings beyond the threshold in the bad direction.
	Regressed bool `json:"regressed"`
}

func (f Finding) String() string {
	ratio := "∞"
	if f.Base > 0 {
		ratio = fmt.Sprintf("%+.1f%%", 100*(f.Cur-f.Base)/f.Base)
	}
	verdict := "improved"
	if f.Regressed {
		verdict = "REGRESSED"
	}
	return fmt.Sprintf("%s %s: %s %.4g -> %.4g (%s)", verdict, f.Name, f.Metric, f.Base, f.Cur, ratio)
}

// compare diffs two snapshots. Only benchmarks present in both are
// considered. A regression is a ns/op or allocs/op increase beyond
// threshold (fractional, e.g. 0.30 = 30%); allocs/op growing from a zero
// baseline is always a regression (the zero-allocation guarantees are
// absolute). Improvements beyond the threshold are reported informationally.
func compare(base, cur Snapshot, threshold float64) []Finding {
	var findings []Finding
	names := make([]string, 0, len(base))
	for name := range base {
		if _, ok := cur[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		b, c := base[name], cur[name]
		if b.NsPerOp > 0 {
			switch {
			case c.NsPerOp > b.NsPerOp*(1+threshold):
				findings = append(findings, Finding{name, "ns/op", b.NsPerOp, c.NsPerOp, true})
			case c.NsPerOp < b.NsPerOp*(1-threshold):
				findings = append(findings, Finding{name, "ns/op", b.NsPerOp, c.NsPerOp, false})
			}
		}
		if !b.HaveMem || !c.HaveMem {
			continue
		}
		switch {
		case b.AllocsPerOp == 0 && c.AllocsPerOp > 0:
			findings = append(findings, Finding{name, "allocs/op", 0, c.AllocsPerOp, true})
		case c.AllocsPerOp > b.AllocsPerOp*(1+threshold):
			findings = append(findings, Finding{name, "allocs/op", b.AllocsPerOp, c.AllocsPerOp, true})
		case b.AllocsPerOp > 0 && c.AllocsPerOp < b.AllocsPerOp*(1-threshold):
			findings = append(findings, Finding{name, "allocs/op", b.AllocsPerOp, c.AllocsPerOp, false})
		}
	}
	return findings
}

// CompareReport is the whole-run result `compare -json` emits: the
// verdict CI scripts parse instead of grepping the text report.
type CompareReport struct {
	Compared    int       `json:"compared"`
	Regressions int       `json:"regressions"`
	Threshold   float64   `json:"threshold"`
	Findings    []Finding `json:"findings"`
}

func runCompare(args []string, out io.Writer) (int, error) {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	threshold := fs.Float64("threshold", 0.30, "fractional regression threshold (0.30 = 30%)")
	soft := fs.Bool("soft", false, "report regressions but exit 0 (for noisy shared runners)")
	asJSON := fs.Bool("json", false, "emit the comparison as one JSON document instead of text")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	if fs.NArg() != 2 {
		return 2, fmt.Errorf("compare needs exactly two snapshot files, got %d", fs.NArg())
	}
	base, err := loadSnapshot(fs.Arg(0))
	if err != nil {
		return 2, err
	}
	cur, err := loadSnapshot(fs.Arg(1))
	if err != nil {
		return 2, err
	}
	findings := compare(base, cur, *threshold)
	regressions := 0
	for _, f := range findings {
		if f.Regressed {
			regressions++
		}
	}
	shared := 0
	for name := range base {
		if _, ok := cur[name]; ok {
			shared++
		}
	}
	if *asJSON {
		rep := CompareReport{Compared: shared, Regressions: regressions, Threshold: *threshold, Findings: findings}
		if rep.Findings == nil {
			rep.Findings = []Finding{}
		}
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return 2, err
		}
	} else {
		for _, f := range findings {
			fmt.Fprintln(out, f)
		}
		fmt.Fprintf(out, "benchdiff: %d benchmarks compared, %d regressions (threshold %.0f%%)\n",
			shared, regressions, *threshold*100)
	}
	if regressions > 0 && !*soft {
		return 1, nil
	}
	return 0, nil
}

// Limit is one benchmark's absolute budget in a gate policy. Nil fields are
// unconstrained; MaxAllocsPerOp and MaxBytesPerOp additionally require
// -benchmem columns in the gated snapshot (a zero without them is
// meaningless).
type Limit struct {
	MaxNsPerOp     *float64 `json:"max_ns_per_op,omitempty"`
	MaxAllocsPerOp *float64 `json:"max_allocs_per_op,omitempty"`
	MaxBytesPerOp  *float64 `json:"max_bytes_per_op,omitempty"`
	// Hotpath names the //netpart:hotpath functions this benchmark's
	// zero-alloc ceiling dynamically verifies (anchor form
	// "internal/core.(Estimator).Estimate"). Checked with -hotpath-src:
	// every anchor must be annotated in the source tree, and a
	// zero-alloc budget without anchors is a violation.
	Hotpath []string `json:"hotpath,omitempty"`
}

// Policy maps "package/BenchmarkName" to its budget. Every entry is
// required: a policy benchmark absent from the snapshot fails the gate, so
// renaming a benchmark cannot silently retire its budget.
type Policy map[string]Limit

// gate checks snap against policy and returns human-readable verdict lines
// plus the number of violations. annotated is the //netpart:hotpath anchor
// set from hotpathAnnotated; nil skips the anchor cross-check (no
// -hotpath-src given).
func gate(policy Policy, snap Snapshot, annotated map[string]bool) (lines []string, violations int) {
	names := make([]string, 0, len(policy))
	for name := range policy {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		lim := policy[name]
		m, ok := snap[name]
		if !ok {
			lines = append(lines, fmt.Sprintf("FAIL %s: missing from snapshot", name))
			violations++
			continue
		}
		for _, b := range []struct {
			unit    string
			max     *float64
			got     float64
			needMem bool
		}{
			{"ns/op", lim.MaxNsPerOp, m.NsPerOp, false},
			{"allocs/op", lim.MaxAllocsPerOp, m.AllocsPerOp, true},
			{"B/op", lim.MaxBytesPerOp, m.BytesPerOp, true},
		} {
			switch {
			case b.max == nil:
			case b.needMem && !m.HaveMem:
				lines = append(lines, fmt.Sprintf("FAIL %s: %s budget set but snapshot lacks -benchmem columns", name, b.unit))
				violations++
			case b.got > *b.max:
				lines = append(lines, fmt.Sprintf("FAIL %s: %.4g %s exceeds budget %.4g", name, b.got, b.unit, *b.max))
				violations++
			default:
				lines = append(lines, fmt.Sprintf("ok   %s: %.4g %s within budget %.4g", name, b.got, b.unit, *b.max))
			}
		}
		if annotated == nil {
			continue
		}
		if lim.MaxAllocsPerOp != nil && *lim.MaxAllocsPerOp == 0 && len(lim.Hotpath) == 0 {
			lines = append(lines, fmt.Sprintf("FAIL %s: zero-alloc budget lists no hotpath anchors; name the //netpart:hotpath functions it verifies", name))
			violations++
		}
		for _, fn := range lim.Hotpath {
			if annotated[fn] {
				lines = append(lines, fmt.Sprintf("ok   %s: anchor %s carries //netpart:hotpath", name, fn))
			} else {
				lines = append(lines, fmt.Sprintf("FAIL %s: anchor %s has no //netpart:hotpath annotation in the source tree", name, fn))
				violations++
			}
		}
	}
	return lines, violations
}

// hotpathAnnotated scans the Go source tree under root (skipping testdata,
// vendor, hidden directories, and _test.go files) for function
// declarations annotated //netpart:hotpath, returning their anchor keys:
// "<dir>.<Func>" for functions and "<dir>.(<Recv>).<Func>" for methods,
// with <dir> the package directory relative to root ("" for the root
// package itself). Parser-only — no type checking — so the scan stays
// cheap enough for every CI gate run.
func hotpathAnnotated(root string) (map[string]bool, error) {
	out := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == root {
				return nil
			}
			name := d.Name()
			if name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return fs.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			hot := false
			for _, c := range fd.Doc.List {
				if strings.HasPrefix(c.Text, "//netpart:hotpath") {
					hot = true
				}
			}
			if !hot {
				continue
			}
			key := fd.Name.Name
			if fd.Recv != nil && len(fd.Recv.List) > 0 {
				key = "(" + recvTypeName(fd.Recv.List[0].Type) + ")." + key
			}
			if rel != "." {
				key = filepath.ToSlash(rel) + "." + key
			}
			out[key] = true
		}
		return nil
	})
	return out, err
}

// recvTypeName extracts the base type name of a method receiver,
// unwrapping pointers and type parameters.
func recvTypeName(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.StarExpr:
		return recvTypeName(t.X)
	case *ast.IndexExpr:
		return recvTypeName(t.X)
	case *ast.IndexListExpr:
		return recvTypeName(t.X)
	case *ast.Ident:
		return t.Name
	}
	return "?"
}

func runGate(args []string, out io.Writer) (int, error) {
	fs := flag.NewFlagSet("gate", flag.ExitOnError)
	policyPath := fs.String("policy", "BENCH_policy.json", "policy file of absolute per-benchmark budgets")
	hotpathSrc := fs.String("hotpath-src", "", "source root: cross-check the policy's hotpath anchors against //netpart:hotpath annotations")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	if fs.NArg() != 1 {
		return 2, fmt.Errorf("gate needs exactly one snapshot file, got %d", fs.NArg())
	}
	policy, err := loadPolicy(*policyPath)
	if err != nil {
		return 2, err
	}
	snap, err := loadSnapshot(fs.Arg(0))
	if err != nil {
		return 2, err
	}
	var annotated map[string]bool
	if *hotpathSrc != "" {
		annotated, err = hotpathAnnotated(*hotpathSrc)
		if err != nil {
			return 2, err
		}
	}
	lines, violations := gate(policy, snap, annotated)
	for _, l := range lines {
		fmt.Fprintln(out, l)
	}
	fmt.Fprintf(out, "benchdiff: %d budgets gated, %d violations\n", len(policy), violations)
	if violations > 0 {
		return 1, nil
	}
	return 0, nil
}

func loadPolicy(path string) (Policy, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var p Policy
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(p) == 0 {
		return nil, fmt.Errorf("%s: empty policy", path)
	}
	return p, nil
}

func loadSnapshot(path string) (Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}
