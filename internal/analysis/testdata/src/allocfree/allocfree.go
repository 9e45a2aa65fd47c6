// Package allocfree is the fixture for the zero-allocation prover's
// interprocedural half: a direct allocation site in the annotated body is
// reported once, for what it is, and an allocation that arrives THROUGH a
// call is reported at the call with a provenance chain down to the
// originating expression (the hotpath fixture covers the direct sites).
package allocfree

import (
	"fmt"
	"net"
	"net/netip"
	"runtime"
)

type table struct {
	rows []float64
	buf  []float64
}

// buildBuf allocates. On its own that is fine — the finding belongs to hot
// callers that reach it.
func buildBuf(n int) []float64 {
	return make([]float64, n)
}

// sumVia is a clean pass-through, so the provenance chain is two hops.
func sumVia(n int) float64 {
	tmp := buildBuf(n)
	var s float64
	for _, v := range tmp {
		s += v
	}
	return s
}

// hotDirect: a direct site in the hot body is one finding, named for
// what it is, not a chain.
//
//netpart:hotpath
func (t *table) hotDirect(n int) []float64 {
	return make([]float64, n) // want `make allocates on the hot path`
}

// hotCalls reaches buildBuf's make through sumVia: one allocfree finding
// at the call site, carrying the whole chain.
//
//netpart:hotpath
func (t *table) hotCalls(n int) float64 {
	return sumVia(n) // want `hot path .*hotCalls reaches an allocation: .*sumVia → .*buildBuf → make allocates`
}

// hotGuarded only allocates under the sanctioned cap guard (first-use
// buffer growth): clean.
//
//netpart:hotpath
func (t *table) hotGuarded(n int) {
	if cap(t.buf) < n {
		t.buf = buildBuf(n)
	}
	t.buf = t.buf[:n]
}

// hotCheck constructs an error only on the failure return: clean.
//
//netpart:hotpath
func (t *table) hotCheck(n int) error {
	if n < 0 {
		return fmt.Errorf("allocfree: negative length %d", n)
	}
	return nil
}

// chaosPath allocates, but the site carries a scoped waiver: it must not
// propagate into any hot caller's summary.
func chaosPath(n int) []float64 {
	return make([]float64, n) //nolint:netpart/allocfree reason=fixture stand-in for a fault-injection-only path
}

// hotWaived calls the waived allocator: no finding.
//
//netpart:hotpath
func (t *table) hotWaived(n int) {
	t.buf = chaosPath(n)
}

// hotScoped: direct sites and call-derived ones share one scope, so a
// //nolint:netpart/allocfree on the hot body's own site is the whole
// waiver: no finding.
//
//netpart:hotpath
func (t *table) hotScoped(n int) []float64 {
	return make([]float64, n) //nolint:netpart/allocfree reason=scoped waiver; one scope covers the direct site too
}

// walk and descend are mutually recursive; the SCC fixpoint must converge
// and still attribute descend's allocation to hot callers of walk.
func walk(depth int) int {
	if depth == 0 {
		return 0
	}
	return descend(depth)
}

func descend(depth int) int {
	p := new(int)
	*p = depth
	return walk(*p-1) + *p
}

//netpart:hotpath
func (t *table) hotRecurse(depth int) int {
	return walk(depth) // want `hot path .*hotRecurse reaches an allocation: .*walk → .*descend → new allocates`
}

// sizer has exactly one in-module implementation, so the type-set
// approximation resolves the interface call to boxy.size.
type sizer interface{ size(n int) []float64 }

type boxy struct{}

func (boxy) size(n int) []float64 { return make([]float64, n) }

//netpart:hotpath
func (t *table) hotIface(s sizer, n int) {
	t.buf = s.size(n) // want `hot path .*hotIface reaches an allocation: .*size → make allocates`
}

// hotDatagram: the AddrPort datagram calls are modeled allocation-free;
// their *UDPAddr predecessors, like every other stdlib call outside the
// model, are not.
//
//netpart:hotpath
func (t *table) hotDatagram(c *net.UDPConn, to netip.AddrPort, old *net.UDPAddr, b []byte) {
	c.WriteToUDPAddrPort(b, to)
	c.WriteToUDP(b, old) // want `hot path .*hotDatagram reaches an allocation: call to net.\(UDPConn\).WriteToUDP \(stdlib, not modeled allocation-free\)`
}

// hotExit: runtime.Goexit ends the goroutine, so it is never a steady
// state and is modeled allocation-free; runtime.GC is not.
//
//netpart:hotpath
func (t *table) hotExit(quit bool) {
	if quit {
		runtime.Goexit()
	}
	runtime.GC() // want `hot path .*hotExit reaches an allocation: call to runtime.GC \(stdlib, not modeled allocation-free\)`
}
