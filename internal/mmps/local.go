package mmps

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Local is the in-memory transport: reliable and ordered by construction,
// sharing the Transport interface with the UDP implementation so higher
// layers can be tested deterministically. With WithInjector it emulates
// the UDP transport's behavior under packet faults — a dropped packet is
// retried every RTO until the injector lets it through (so an unhealed
// partition stalls the stream, and a healed one resumes it), a delayed
// packet arrives late, and a duplicated packet is suppressed — while still
// guaranteeing reliable in-order per-sender delivery.
//
// Like Conn, each endpoint owns its state: a lock, the per-source inboxes
// its peers deliver into, the free list those deliveries are copied into,
// and one timer for its blocked receivers. Send locks only the destination,
// so ranks exchanging with different peers never contend, and a receive
// whose message is already queued reads no clock.
type Local struct {
	rank   int
	world  *localWorld
	closed atomic.Bool // written under mu; senders read it without

	mu        sync.Mutex
	delivered *sync.Cond // receivers: delivery, deadline, close
	in        []fifo     // per source
	free      freeList   // delivered buffers handed back through Recycle
	// streams[src] sequences faulted deliveries from src so per-sender order
	// survives drops and delays. Nil without an injector.
	streams []localStream
	// The timer wakes the blocked receivers by the earliest deadline among
	// them: timerAt is when it is armed to fire, in nanoseconds since the
	// world's epoch (0 = unarmed), and the last waiter to leave disarms it.
	timer   *time.Timer
	timerAt int64
	waiting int
}

// localWorld is what a world's endpoints share, fixed at NewLocalWorld.
type localWorld struct {
	eps   []*Local
	opts  options
	epoch time.Time
}

// localStream orders one (src,dst) message stream under injected faults.
type localStream struct {
	nextSeq     uint64
	nextDeliver uint64
	held        map[uint64][]byte // out-of-order arrivals; nil = tombstone
}

// NewLocalWorld creates n connected in-memory endpoints.
func NewLocalWorld(n int, opts ...Option) ([]*Local, error) {
	if n <= 0 {
		return nil, fmt.Errorf("mmps: world size %d", n)
	}
	o := defaultOptions()
	for _, opt := range opts {
		opt(&o)
	}
	w := &localWorld{eps: make([]*Local, n), opts: o, epoch: time.Now()}
	for i := range w.eps {
		l := &Local{rank: i, world: w, in: make([]fifo, n)}
		l.delivered = sync.NewCond(&l.mu)
		l.timer = time.AfterFunc(time.Hour, l.tick)
		l.timer.Stop()
		if o.injector != nil {
			l.streams = make([]localStream, n)
			for j := range l.streams {
				l.streams[j].held = make(map[uint64][]byte)
			}
		}
		w.eps[i] = l
	}
	return slices.Clone(w.eps), nil
}

// Rank returns the endpoint's rank.
func (l *Local) Rank() int { return l.rank }

// Size returns the world size.
func (l *Local) Size() int { return len(l.world.eps) }

// now is the world's clock: nanoseconds since its epoch.
func (w *localWorld) now() int64 { return int64(time.Since(w.epoch)) }

// Send copies data into dst's inbox from this endpoint (immediately, or
// through the fault injector's emulated network when the world has one).
// The copy comes from dst's free list, which dst's Recycle refills.
func (l *Local) Send(dst int, data []byte) error {
	w := l.world
	if err := rankCheck(dst, len(w.eps)); err != nil {
		return err
	}
	d := w.eps[dst]
	d.mu.Lock()
	if l.closed.Load() || d.closed.Load() {
		d.mu.Unlock()
		return ErrClosed
	}
	cp := d.free.take(len(data))
	copy(cp, data)
	w.opts.metrics.msgsSent.Inc()
	w.opts.metrics.bytesSent.Add(int64(len(data)))
	if w.opts.injector == nil {
		d.deliverLocked(l.rank, cp)
		d.mu.Unlock()
		return nil
	}
	st := &d.streams[l.rank]
	seq := st.nextSeq
	st.nextSeq++
	d.mu.Unlock()
	w.route(l.rank, dst, seq, cp) //nolint:netpart/allocfree reason=fault-injection path only; the steady state returns through the inj==nil fast path above, and chaos-mode retry timers may allocate
	return nil
}

// deliverLocked files msg in src's inbox and wakes the blocked receivers,
// if any. Caller holds mu.
func (l *Local) deliverLocked(src int, msg []byte) {
	l.in[src].push(msg)
	if l.waiting > 0 {
		l.delivered.Broadcast()
	}
}

// route consults the injector for one message and schedules its delivery:
// drops retry after an RTO (re-consulting the injector, so a healed
// partition lets the retry through), delays deliver late, duplicates are
// suppressed (this transport is reliable; the engine still counts them).
func (w *localWorld) route(src, dst int, seq uint64, data []byte) {
	fate := w.opts.injector.Packet(src, dst, float64(w.now())/float64(time.Millisecond))
	switch {
	case fate.Drop:
		time.AfterFunc(w.opts.rto, func() {
			if w.eps[src].closed.Load() || w.eps[dst].closed.Load() {
				w.deliverSeq(src, dst, seq, nil) // tombstone: unblock the stream
				return
			}
			w.route(src, dst, seq, data)
		})
	case fate.DelayMs > 0:
		time.AfterFunc(time.Duration(fate.DelayMs*float64(time.Millisecond)), func() {
			w.deliverSeq(src, dst, seq, data)
		})
	default:
		w.deliverSeq(src, dst, seq, data)
	}
}

// deliverSeq hands one sequenced message to the (src,dst) stream and
// drains every in-order message into dst's inbox. A nil data tombstones
// the sequence number (abandoned delivery) so later messages still flow.
func (w *localWorld) deliverSeq(src, dst int, seq uint64, data []byte) {
	d := w.eps[dst]
	d.mu.Lock()
	defer d.mu.Unlock()
	st := &d.streams[src]
	if seq < st.nextDeliver {
		return
	}
	st.held[seq] = data
	for {
		msg, ok := st.held[st.nextDeliver]
		if !ok {
			return
		}
		delete(st.held, st.nextDeliver)
		st.nextDeliver++
		if msg != nil && !d.closed.Load() {
			d.deliverLocked(src, msg)
		}
	}
}

// popLocked removes and returns the head of src's inbox, which must be
// non-empty. Caller holds mu.
//
//netpart:hotpath
func (l *Local) popLocked(src int) []byte {
	msg := l.in[src].pop()
	l.world.opts.metrics.msgsRecv.Inc()
	l.world.opts.metrics.bytesRecv.Add(int64(len(msg)))
	return msg
}

// recv blocks for the next message from a source in [lo, hi), scanning
// inboxes in ascending rank order, for at most d. A blocked receiver arms
// the endpoint's timer for its deadline unless it is already due sooner;
// the last one to leave disarms it.
func (l *Local) recv(lo, hi int, d time.Duration) (int, []byte, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var deadline int64
	for {
		if l.closed.Load() {
			return -1, nil, ErrClosed
		}
		for src := lo; src < hi; src++ {
			if l.in[src].n > 0 {
				return src, l.popLocked(src), nil
			}
		}
		now := l.world.now()
		if deadline == 0 {
			deadline = now + int64(d)
		}
		if now >= deadline {
			return -1, nil, ErrTimeout
		}
		if l.timerAt == 0 || deadline < l.timerAt {
			l.timerAt = deadline
			l.timer.Reset(time.Duration(deadline - now))
		}
		l.waiting++
		l.delivered.Wait()
		if l.waiting--; l.waiting == 0 {
			l.timer.Stop()
			l.timerAt = 0
		}
	}
}

// tick is the endpoint's timer. It wakes every blocked receiver: the one
// whose deadline came returns ErrTimeout, the others arm the timer again.
func (l *Local) tick() {
	l.mu.Lock()
	l.timerAt = 0
	l.delivered.Broadcast()
	l.mu.Unlock()
}

// Recv blocks for the next message from src, up to the receive timeout.
func (l *Local) Recv(src int) ([]byte, error) {
	return recvFrom(l, src, l.Size(), l.world.opts.recvTimeout)
}

// RecvAny blocks for the next message from any peer, scanning inboxes in
// ascending rank order. d <= 0 means the world's receive timeout.
func (l *Local) RecvAny(d time.Duration) (int, []byte, error) {
	if d <= 0 {
		d = l.world.opts.recvTimeout
	}
	return l.recv(0, len(l.world.eps), d)
}

// Recycle implements Recycler: a delivered buffer rejoins this endpoint's
// free list, from which a later Send to it takes its copy. The caller must
// not touch buf afterwards.
func (l *Local) Recycle(buf []byte) {
	l.mu.Lock()
	l.free.put(buf)
	l.mu.Unlock()
}

// Close marks the endpoint closed and wakes its blocked receivers, which
// return ErrClosed; the last of them disarms the timer.
func (l *Local) Close() error {
	l.mu.Lock()
	l.closed.Store(true)
	l.delivered.Broadcast()
	l.mu.Unlock()
	return nil
}
