package allocfree

import "unsafe"

// The assembly model: a body-less declaration is allocation-free when it is
// //go:noescape and its TEXT symbol (asm.s) is NOSPLIT with a $0 frame.
// Anything else written in assembly is assumed to allocate, and the finding
// names it as assembly rather than as an unmodeled stdlib call.

// leafSum meets all three conditions.
//
//go:noescape
func leafSum(p *float64, n int) float64

// framedSum has a 32-byte frame: it could be calling anything.
//
//go:noescape
func framedSum(p *float64, n int) float64

// splitSum is frameless but not NOSPLIT.
//
//go:noescape
func splitSum(p *float64, n int) float64

// escapingSum is a frameless NOSPLIT leaf whose declaration does not
// promise that p stays on the caller's side.
func escapingSum(p *float64, n int) float64

// missingSum has no TEXT symbol in the package's assembly at all.
//
//go:noescape
func missingSum(p *float64, n int) float64

//netpart:hotpath
func (t *table) hotAsmLeaf() float64 {
	return leafSum(&t.rows[0], len(t.rows))
}

// hotAsmSliceData hands the routine its operand through unsafe.SliceData,
// a builtin of package unsafe, not an unresolved call: clean.
//
//netpart:hotpath
func (t *table) hotAsmSliceData() float64 {
	return leafSum((*float64)(unsafe.Pointer(unsafe.SliceData(t.rows))), len(t.rows))
}

//netpart:hotpath
func (t *table) hotAsmFramed() float64 {
	return framedSum(&t.rows[0], len(t.rows)) // want `hot path .*hotAsmFramed reaches an allocation: call to allocfree.framedSum \(assembly, not modeled allocation-free\)`
}

//netpart:hotpath
func (t *table) hotAsmSplit() float64 {
	return splitSum(&t.rows[0], len(t.rows)) // want `call to allocfree.splitSum \(assembly, not modeled allocation-free\)`
}

//netpart:hotpath
func (t *table) hotAsmEscaping() float64 {
	return escapingSum(&t.rows[0], len(t.rows)) // want `call to allocfree.escapingSum \(assembly, not modeled allocation-free\)`
}

//netpart:hotpath
func (t *table) hotAsmMissing() float64 {
	return missingSum(&t.rows[0], len(t.rows)) // want `call to allocfree.missingSum \(assembly, not modeled allocation-free\)`
}

// sumBoth is a Go function between the hot path and the assembly: the
// verdicts travel through summaries like any other fact.
func sumBoth(rows []float64) float64 {
	return leafSum(&rows[0], len(rows)) + framedSum(&rows[0], len(rows))
}

//netpart:hotpath
func (t *table) hotAsmVia() float64 {
	return sumBoth(t.rows) // want `hot path .*hotAsmVia reaches an allocation: .*sumBoth → call to allocfree.framedSum \(assembly, not modeled allocation-free\)`
}
