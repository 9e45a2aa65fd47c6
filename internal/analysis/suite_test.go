package analysis_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"netpart/internal/analysis"
	"netpart/internal/analysis/antest"
)

func fixture(name string) string {
	return filepath.Join("testdata", "src", name)
}

func TestDeterminism(t *testing.T) {
	antest.Run(t, []*analysis.Analyzer{analysis.Determinism}, fixture("determinism"))
}

// TestHotPath covers allocfree's direct sites: allocating constructs in a
// //netpart:hotpath body itself, every one reported.
func TestHotPath(t *testing.T) {
	antest.Run(t, []*analysis.Analyzer{analysis.AllocFree}, fixture("hotpath"))
}

// TestAllocFree covers the sites that arrive through calls (with their
// provenance chains), the assembly model, and the one suppression scope
// direct and call-derived sites share.
func TestAllocFree(t *testing.T) {
	antest.Run(t, []*analysis.Analyzer{analysis.AllocFree}, fixture("allocfree"))
}

func TestMsgProto(t *testing.T) {
	antest.Run(t, []*analysis.Analyzer{analysis.MsgProto}, fixture("msgproto"))
}

// TestPoolLifetime covers poolflow's accessor-discipline half.
func TestPoolLifetime(t *testing.T) {
	antest.Run(t, []*analysis.Analyzer{analysis.PoolFlow}, fixture("poollifetime"))
}

func TestPoolFlow(t *testing.T) {
	antest.Run(t, []*analysis.Analyzer{analysis.PoolFlow}, fixture("poolflow"))
}

func TestConcSafety(t *testing.T) {
	antest.Run(t, []*analysis.Analyzer{analysis.ConcSafety}, fixture("concsafety"))
}

func TestErrCheck(t *testing.T) {
	antest.Run(t, []*analysis.Analyzer{analysis.ErrCheck}, fixture("errcheck"))
}

// TestSuppression runs the full suite so the //nolint:netpart machinery is
// exercised exactly as cmd/netpartlint runs it: justified suppressions
// silence findings, scoped suppressions only silence their analyzer, and a
// missing reason is a finding in its own right.
func TestSuppression(t *testing.T) {
	antest.Run(t, analysis.Analyzers(), fixture("nolint"))
}

// TestSuiteIsWhatTheDocsSay keeps the three lists of the suite in step:
// Analyzers(), the names in cmd/netpartlint's package comment (same order:
// it is what -list prints), and the README's "Static analysis" bullets
// (grouped by kind there, so compared as a set). Merging or retiring an
// analyzer cannot leave a ghost in either document. The same holds for
// directives: every //netpart:<name> in the module's code is in this
// package's directive list, and every listed directive has a reader here,
// so a retired analyzer cannot leave its directives behind in the code.
func TestSuiteIsWhatTheDocsSay(t *testing.T) {
	checkDirectives(t)

	var suite []string
	for _, a := range analysis.Analyzers() {
		suite = append(suite, a.Name)
	}

	src, err := os.ReadFile(filepath.Join("..", "..", "cmd", "netpartlint", "main.go"))
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`(?s)internal/analysis suite — (.*?) — over`).FindSubmatch(src)
	if m == nil {
		t.Fatal("cmd/netpartlint's package comment no longer lists the suite between dashes")
	}
	listed := strings.Fields(strings.NewReplacer("//", " ", ",", " ").Replace(string(m[1])))
	if !slices.Equal(listed, suite) {
		t.Errorf("cmd/netpartlint's package comment lists %v, Analyzers() is %v", listed, suite)
	}

	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(readme), "\n## Static analysis\n")
	if !ok {
		t.Fatal(`README has no "## Static analysis" section`)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	var bullets []string
	for _, b := range regexp.MustCompile(`(?m)^- \*\*([a-z]+)\*\*`).FindAllStringSubmatch(section, -1) {
		bullets = append(bullets, b[1])
	}
	slices.Sort(bullets)
	slices.Sort(suite)
	if !slices.Equal(bullets, suite) {
		t.Errorf("README's Static analysis section describes %v, Analyzers() is %v", bullets, suite)
	}
}

// checkDirectives compares three sets of directive names: those in the
// package comment's list, those the module's Go files carry (outside
// testdata), and those a non-test file of this package reads as a
// "netpart:<name>" literal.
func checkDirectives(t *testing.T) {
	t.Helper()
	nameRe := regexp.MustCompile(`^//netpart:([a-z]+)`)
	fset := token.NewFileSet()
	doc, err := parser.ParseFile(fset, "analysis.go", nil, parser.ParseComments|parser.PackageClauseOnly)
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{}
	for _, line := range strings.Split(doc.Doc.Text(), "\n") {
		if m := nameRe.FindStringSubmatch(strings.TrimSpace(line)); m != nil {
			listed[m[1]] = true
		}
	}
	if len(listed) == 0 {
		t.Fatal("the package comment lists no //netpart: directives")
	}

	root := filepath.Join("..", "..")
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == "testdata" || path != root && strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if m := nameRe.FindStringSubmatch(c.Text); m != nil && !listed[m[1]] {
					t.Errorf("%s: //netpart:%s is not in internal/analysis's directive list", fset.Position(c.Pos()), m[1])
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var src strings.Builder
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		src.Write(b)
	}
	for name := range listed {
		if !strings.Contains(src.String(), `"netpart:`+name+`"`) {
			t.Errorf("//netpart:%s is listed, but nothing in internal/analysis reads it", name)
		}
	}
}
