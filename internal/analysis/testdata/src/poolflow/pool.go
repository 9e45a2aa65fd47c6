// Package poolflow is the fixture for the path-sensitive sync.Pool
// lifetime analyzer. It includes the join case a per-branch syntactic
// tracker gets wrong (joinPoisons: a Put in every arm of an if is
// forgotten at the join) and the loop back-edge case it cannot see at all
// (loopCarried).
package poolflow

import "sync"

var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 64); return &b }}

func getBuf() *[]byte { return bufPool.Get().(*[]byte) }

func putBuf(bp *[]byte) { bufPool.Put(bp) }

func useAfterPut() int {
	bp := getBuf()
	putBuf(bp)
	return len(*bp) // want `pooled buffer "bp" used after Put on some path`
}

func aliasAfterPut() int {
	bp := getBuf()
	buf := *bp
	putBuf(bp)
	return len(buf) // want `pooled buffer "buf" used after Put on some path`
}

// joinPoisons is the path-sensitivity case the old per-branch clone
// missed: both arms Put, so the use after the join reads recycled memory
// on every path.
func joinPoisons(ok bool) int {
	bp := getBuf()
	if ok {
		putBuf(bp)
	} else {
		putBuf(bp)
	}
	return len(*bp) // want `pooled buffer "bp" used after Put on some path`
}

// loopCarried flows the Put around the loop's back edge: the second
// iteration reads a buffer the first one recycled.
func loopCarried(n int) {
	bp := getBuf()
	for i := 0; i < n; i++ {
		_ = len(*bp) // want `pooled buffer "bp" used after Put on some path`
		putBuf(bp)
	}
}

func reassigned() int {
	bp := getBuf()
	putBuf(bp)
	bp = getBuf() // whole reassignment revives the variable
	n := len(*bp)
	putBuf(bp)
	return n
}

// branchRevive: the Put is followed by a re-get on the same path, so the
// use after the join is clean on every path.
func branchRevive(ok bool) int {
	bp := getBuf()
	if ok {
		putBuf(bp)
		bp = getBuf()
	}
	n := len(*bp)
	putBuf(bp)
	return n
}

// rangeEach recycles each element exactly once: the range head reassigns
// f every iteration, so the previous iteration's Put must not poison it.
func rangeEach(frags []*[]byte) {
	for i, f := range frags {
		putBuf(f)
		frags[i] = nil
	}
}

func delayedPut() func() {
	bp := getBuf()
	return func() { putBuf(bp) } // closures run later: analyzed with a clean slate
}

// transport stands in for an mmps transport: Recycle takes a delivered
// buffer back, and the caller must not touch it afterwards.
type transport struct{}

func (transport) Recycle(buf []byte) {}

// Recycle mirrors mmps.Recycle(tr, buf).
func Recycle(tr transport, buf []byte) { tr.Recycle(buf) }

func useAfterRecycle(tr transport, buf []byte) byte {
	tr.Recycle(buf)
	return buf[0] // want `pooled buffer "buf" used after Put on some path`
}

func useAfterRecycleFunc(tr transport, buf []byte) byte {
	Recycle(tr, buf)
	return buf[0] // want `pooled buffer "buf" used after Put on some path`
}

func readThenRecycle(tr transport, buf []byte) byte {
	b := buf[0]
	Recycle(tr, buf)
	return b
}
