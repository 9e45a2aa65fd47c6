package mmps

// Recycler is optionally implemented by transports whose delivered message
// buffers can be returned for reuse once the receiver has copied out what
// it keeps. Recv transfers buffer ownership to the caller and the
// transport never sees the buffer again, so only the caller knows when it
// dies; handing it back lets the transport serve a later delivery from a
// free list instead of the heap. (The internal bufPool cannot back
// delivered messages for exactly this reason — see pool.go.) Both
// transports implement it.
type Recycler interface {
	// Recycle returns a buffer previously obtained from Recv or RecvAny.
	// The caller must not touch the buffer afterwards.
	Recycle(buf []byte)
}

// Recycle hands buf back to tr when the transport supports reuse and is a
// no-op otherwise, so receive loops can recycle unconditionally.
func Recycle(tr Transport, buf []byte) {
	if r, ok := tr.(Recycler); ok {
		r.Recycle(buf)
	}
}

// maxFreeBufs bounds a freeList; beyond it, returned buffers fall to the
// garbage collector.
const maxFreeBufs = 256

// freeList holds delivered buffers handed back through Recycle, reused for
// later delivery copies. A buffer is never handed out twice concurrently:
// take pops under the owner's lock and the popped buffer's ownership then
// follows the message (queue -> Recv caller -> Recycle).
type freeList [][]byte

// take returns a buffer of length n, reusing recycled capacity when any is
// available. The caller must hold the owner's lock.
//
//netpart:hotpath
func (f *freeList) take(n int) []byte {
	if len(*f) == 0 {
		return make([]byte, n)
	}
	b := (*f)[len(*f)-1]
	*f = (*f)[:len(*f)-1]
	if cap(b) < n {
		return make([]byte, n)
	}
	return b[:n]
}

// put adds a recycled buffer. The caller must hold the owner's lock.
func (f *freeList) put(buf []byte) {
	if cap(buf) > 0 && len(*f) < maxFreeBufs {
		*f = append(*f, buf)
	}
}

// fifo is one source's inbox on either transport: delivered messages in
// arrival order, n of them from ring[head] on. The ring doubles when full
// and otherwise stays put, so an inbox that has been as deep before takes
// and gives up messages without allocating. The caller must hold the
// owner's lock.
type fifo struct {
	ring    [][]byte // len is 0 or a power of two
	head, n int
}

func (q *fifo) push(msg []byte) {
	if q.n == len(q.ring) {
		grown := make([][]byte, max(4, 2*len(q.ring)))
		copy(grown[copy(grown, q.ring[q.head:]):], q.ring[:q.head])
		q.ring, q.head = grown, 0
	}
	q.ring[(q.head+q.n)&(len(q.ring)-1)] = msg
	q.n++
}

// pop removes and returns the oldest message; the fifo must not be empty.
//
//netpart:hotpath
func (q *fifo) pop() []byte {
	msg := q.ring[q.head]
	q.ring[q.head] = nil
	q.head = (q.head + 1) & (len(q.ring) - 1)
	q.n--
	return msg
}
