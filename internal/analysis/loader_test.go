package analysis_test

import (
	"go/ast"
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

// budgetedHotpaths are the //netpart:hotpath functions that a
// zero-allocation budget test exercises, as "<dir>.<Func>" or
// "<dir>.(<Recv>).<Func>" with <dir> the package directory in the module.
// The budget tests check at run time what allocfree proves statically;
// each name here must keep its annotation, or the static proof would stop
// covering a path whose budget still holds by luck.
var budgetedHotpaths = []string{
	"internal/core.(DeltaEval).Probe",  // TestDeltaProbeZeroAllocs
	"internal/mmps.(Local).popLocked",  // TestAllocationBudgets/MMPSHaloLocal
	"internal/mmps.(fifo).pop",         // TestAllocationBudgets/MMPSHaloLocal
	"internal/mmps.(freeList).take",    // TestAllocationBudgets/MMPSHaloLocal
	"internal/mmps.AppendFloat64s",     // TestCoerceAllocationBudget
	"internal/mmps.DecodeFloat64sInto", // TestCoerceAllocationBudget
	"internal/stencil.(block).sweep",   // TestSweepAllocationBudget
	"internal/stencil.updateRow",       // TestSweepAllocationBudget
	"internal/stencil.appendHaloFrame", // TestHaloCodecZeroAllocs
	"internal/stencil.parseHaloFrame",  // TestHaloCodecZeroAllocs
}

// TestBudgetedHotpathsAreAnnotated fails when a function a zero-allocation
// budget exercises loses its //netpart:hotpath annotation, or when a name
// in budgetedHotpaths matches no function in the module.
func TestBudgetedHotpathsAreAnnotated(t *testing.T) {
	pkgs, _ := loadModule(t)
	annotated := map[string]bool{} // every function, by anchor: annotated or not
	for _, pkg := range pkgs {
		dir := strings.TrimPrefix(pkg.Path, "netpart/")
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				key := dir + "." + fd.Name.Name
				if fd.Recv != nil {
					key = dir + ".(" + recvTypeName(fd.Recv.List[0].Type) + ")." + fd.Name.Name
				}
				hot := false
				if fd.Doc != nil {
					for _, c := range fd.Doc.List {
						hot = hot || strings.HasPrefix(c.Text, "//netpart:hotpath")
					}
				}
				annotated[key] = hot
			}
		}
	}
	for _, anchor := range budgetedHotpaths {
		hot, ok := annotated[anchor]
		switch {
		case !ok:
			t.Errorf("%s names no function in the module", anchor)
		case !hot:
			t.Errorf("%s has a zero-allocation budget but no //netpart:hotpath annotation", anchor)
		}
	}
}

// recvTypeName is a method receiver's base type name.
func recvTypeName(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.StarExpr:
		return recvTypeName(t.X)
	case *ast.IndexExpr: // a generic receiver, as dataflow.go's FlowState[K]
		return recvTypeName(t.X)
	case *ast.Ident:
		return t.Name
	}
	return ""
}
