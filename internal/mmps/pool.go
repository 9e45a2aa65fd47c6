package mmps

import "sync"

// bufPool recycles the transport's short-lived byte buffers: encoded
// datagrams (alive only until the socket write completes — or, under an
// injected delay, until the deferred write fires) and Send's message copies
// (alive until the message is acknowledged, fails, or the endpoint closes).
// Buffers whose lifetime extends into the application — delivered messages —
// must NOT come from this pool: Recv hands them to the caller, and only the
// caller can hand them back (Recycler, recycle.go).
//
// The pool stores and hands out *[]byte boxes so that neither Get nor Put
// allocates once the pool is warm; callers keep the box and return it with
// putBuf when the buffer dies.
var bufPool = sync.Pool{New: func() any { return new([]byte) }}

// getBuf returns a boxed buffer of length n (reusing pooled capacity).
//
//netpart:hotpath
func getBuf(n int) *[]byte {
	p := bufPool.Get().(*[]byte)
	if cap(*p) < n {
		*p = make([]byte, n)
	}
	*p = (*p)[:n]
	return p
}

// putBuf recycles a boxed buffer obtained from getBuf. The caller must not
// touch the buffer afterward: the next getBuf may hand the same memory to
// another goroutine.
//
//netpart:hotpath
func putBuf(p *[]byte) { bufPool.Put(p) }
