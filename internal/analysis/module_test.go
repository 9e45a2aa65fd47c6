package analysis_test

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"testing"

	"netpart/internal/analysis"
)

// The whole-tree tests share one loaded module. Type-checking the module
// from source is the package's dominant cost (seconds, against
// milliseconds for every analyzer over every package), so it happens at
// most once per test binary — on the first test that asks, whatever the
// order or the -run selection — and TestMain fails the binary if
// typecheckModule ever ran twice.

// moduleLoads counts whole-module type-checks in this test binary.
var moduleLoads atomic.Int32

// module is the shared fixture.
var module struct {
	once sync.Once
	pkgs []*analysis.Package
	ip   *analysis.Interproc
	err  error
}

// typecheckModule loads and type-checks every package of the module and
// solves the call graph over them. Tests reach it through loadModule.
func typecheckModule() ([]*analysis.Package, *analysis.Interproc, error) {
	moduleLoads.Add(1)
	return analysis.LoadModule("./...")
}

// loadModule returns the shared module, loading it on first use. The
// packages are read-only to the analyzers and the extractor, so tests may
// use them in any order.
func loadModule(t *testing.T) ([]*analysis.Package, *analysis.Interproc) {
	t.Helper()
	if testing.Short() {
		t.Skip("typechecks the whole module from source")
	}
	module.once.Do(func() { module.pkgs, module.ip, module.err = typecheckModule() })
	if module.err != nil {
		t.Fatal(module.err)
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
