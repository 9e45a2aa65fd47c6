package analysis_test

import (
	"strings"
	"testing"

	"netpart/internal/analysis"
)

// TestModuleLoadsAndIsLintClean loads the whole module through the
// source-level loader and asserts two invariants at once: every package
// typechecks (the loader is trustworthy), and the full analyzer suite
// reports zero violations on the tree as committed — the same gate
// cmd/netpartlint enforces in CI, here kept under plain `go test`.
func TestModuleLoadsAndIsLintClean(t *testing.T) {
	pkgs, _ := loadModule(t)
	if len(pkgs) < 25 {
		t.Fatalf("loaded %d packages, expected the full module (>= 25)", len(pkgs))
	}
	seen := map[string]bool{}
	for _, pkg := range pkgs {
		seen[pkg.Path] = true
		for _, terr := range pkg.TypeErrors {
			t.Errorf("%s: typecheck: %v", pkg.Path, terr)
		}
	}
	for _, must := range []string{"netpart", "netpart/internal/core", "netpart/internal/obs", "netpart/internal/mmps"} {
		if !seen[must] {
			t.Errorf("package %s missing from ./... expansion", must)
		}
	}
	for _, pkg := range pkgs {
		diags, err := analysis.Check(pkg, analysis.Analyzers())
		if err != nil {
			t.Fatalf("%s: %v", pkg.Path, err)
		}
		for _, d := range diags {
			t.Errorf("committed tree must be lint-clean: %s", d)
		}
	}
}

// TestModuleIsAllocfreeClean is the zero-alloc gate run whole-tree under
// plain `go test`: every //netpart:hotpath function in the module must
// prove allocation-free, in its own body and through its entire call tree,
// and the wire codecs must be symmetric. The hotpath-count floor keeps the
// test honest — if the annotations were ever stripped, the analyzers would
// pass vacuously and this fails instead.
func TestModuleIsAllocfreeClean(t *testing.T) {
	pkgs, _ := loadModule(t)
	subset := []*analysis.Analyzer{analysis.AllocFree, analysis.MsgProto}
	hot := 0
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if strings.HasPrefix(c.Text, "//netpart:hotpath") {
						hot++
					}
				}
			}
		}
		diags, err := analysis.Check(pkg, subset)
		if err != nil {
			t.Fatalf("%s: %v", pkg.Path, err)
		}
		for _, d := range diags {
			t.Errorf("hot paths must stay provably allocation-free: %s", d)
		}
	}
	if hot < 5 {
		t.Errorf("found %d //netpart:hotpath annotations module-wide, want >= 5 (gate would be vacuous)", hot)
	}
}
