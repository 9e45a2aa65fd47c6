package analysis_test

import (
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

func TestUnits(t *testing.T) {
	antest.Run(t, []*analysis.Analyzer{analysis.Units}, fixture("units"))
}

func TestObsNil(t *testing.T) {
	antest.Run(t, []*analysis.Analyzer{analysis.ObsNil}, fixture("obsnil"))
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
// analyzer cannot leave a ghost in either document.
func TestSuiteIsWhatTheDocsSay(t *testing.T) {
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
