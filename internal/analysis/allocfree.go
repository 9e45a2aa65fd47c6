package analysis

import (
	"go/types"
)

// AllocFree enforces the zero-allocation contract on functions annotated
// //netpart:hotpath — the estimator's Estimate fast path, the search's
// scratch-probe helpers, the halo encode/decode codec, the block sweep.
// The contract (see DESIGN.md) is: the steady-state, observer-free
// execution of the function performs no heap allocation, in its own body
// or anywhere in its call tree. That is what keeps the O(K·log2 P) runtime
// search cheap enough to re-run on every adaptation cycle, and it turns
// BENCH_policy.json's bench-time zero-alloc ceilings into lint-time
// findings.
//
// For every hot function the analyzer reads the solved summary
// (summary.go) and reports each allocation fact in it. A site in the hot
// body itself is named for what it is —
//
//   - make/new and &T{...} allocations;
//   - append through a local slice that was declared without capacity
//     ("unsized append") or through a fresh slice; reslicing idioms like
//     buf[:0] and appends into caller-owned or field-held scratch are
//     accepted;
//   - closures that capture enclosing variables (the capture forces the
//     closure, and usually the captured variable, onto the heap);
//   - explicit conversions of concrete values to interface types;
//
// and a fact that arrives through a call — a module function that
// allocates, an unresolved indirect call, a stdlib call outside the model
// (fmt.* among them), an assembly function that is not a frameless leaf —
// carries the provenance chain down to the originating expression:
//
//	hot path core.Estimate reaches an allocation: call to
//	core.(Estimator).cluster → make allocates (estimate.go:101)
//
// Guarded slow paths, fmt.Errorf failure returns, //netpart:purecallback
// fields, and //nolint-waived sites have already been excluded at
// summary-build time, so a finding here means a real steady-state
// allocation (or a call that must be annotated or waived with a reason).
var AllocFree = &Analyzer{
	Name: "allocfree",
	Doc:  "proves //netpart:hotpath functions allocation-free, in their own bodies and through their whole call tree",
	Run:  runAllocFree,
}

func runAllocFree(pass *Pass) error {
	ip := pass.Inter
	if ip == nil {
		return nil // no interprocedural state wired (single-pass unit tests)
	}
	for _, fd := range enclosingFuncDecls(pass.Files) {
		if !funcHasDirective(fd, "netpart:hotpath") {
			continue
		}
		fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
		if fn == nil {
			continue
		}
		sum := ip.Summary(fn)
		if sum == nil {
			continue
		}
		for _, site := range sum.Allocs {
			if site.ViaCall {
				pass.Reportf(site.Pos, "hot path %s reaches an allocation: %s",
					funcLabel(fn), ip.RenderChain(site))
			} else {
				pass.Reportf(site.Pos, "%s on the hot path", site.Desc)
			}
		}
	}
	return nil
}
