package mmps

import (
	"fmt"
	"sync"
	"time"

	"netpart/internal/faults"
)

// Local is the in-memory transport: reliable and ordered by construction,
// sharing the Transport interface with the UDP implementation so higher
// layers can be tested deterministically. With WithInjector it emulates
// the UDP transport's behavior under packet faults — a dropped packet is
// retried every RTO until the injector lets it through (so an unhealed
// partition stalls the stream, and a healed one resumes it), a delayed
// packet arrives late, and a duplicated packet is suppressed — while still
// guaranteeing reliable in-order per-sender delivery.
type Local struct {
	rank  int
	world *localWorld
}

type localWorld struct {
	size        int
	recvTimeout time.Duration
	rto         time.Duration
	inj         faults.Injector
	epoch       time.Time
	metrics     transportMetrics
	mu          sync.Mutex
	closed      []bool
	// free holds delivered buffers handed back through Recycle, reused by
	// Send for its delivery copies.
	free freeList
	// queues[dst][src] holds pending messages with a condition variable
	// per destination for blocking receives.
	queues []map[int][][]byte
	conds  []*sync.Cond
	// streams[src][dst] sequences faulted deliveries so per-sender order
	// survives drops and delays. Nil without an injector.
	streams [][]*localStream
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
	w := &localWorld{
		size:        n,
		recvTimeout: o.recvTimeout,
		rto:         o.rto,
		inj:         o.injector,
		epoch:       time.Now(),
		metrics:     o.metrics,
		closed:      make([]bool, n),
		queues:      make([]map[int][][]byte, n),
		conds:       make([]*sync.Cond, n),
	}
	eps := make([]*Local, n)
	for i := 0; i < n; i++ {
		w.queues[i] = make(map[int][][]byte)
		w.conds[i] = sync.NewCond(&w.mu)
		eps[i] = &Local{rank: i, world: w}
	}
	if w.inj != nil {
		w.streams = make([][]*localStream, n)
		for i := 0; i < n; i++ {
			w.streams[i] = make([]*localStream, n)
			for j := 0; j < n; j++ {
				w.streams[i][j] = &localStream{held: make(map[uint64][]byte)}
			}
		}
	}
	return eps, nil
}

// Rank returns the endpoint's rank.
func (l *Local) Rank() int { return l.rank }

// Size returns the world size.
func (l *Local) Size() int { return l.world.size }

// Send copies data into dst's queue (immediately, or through the fault
// injector's emulated network when the world has one).
func (l *Local) Send(dst int, data []byte) error {
	if err := rankCheck(dst, l.world.size); err != nil {
		return err
	}
	w := l.world
	w.mu.Lock()
	if w.closed[l.rank] || w.closed[dst] {
		w.mu.Unlock()
		return ErrClosed
	}
	cp := w.free.take(len(data))
	copy(cp, data)
	w.metrics.msgsSent.Inc()
	w.metrics.bytesSent.Add(int64(len(data)))
	if w.inj == nil {
		w.queues[dst][l.rank] = append(w.queues[dst][l.rank], cp)
		w.conds[dst].Broadcast()
		w.mu.Unlock()
		return nil
	}
	st := w.streams[l.rank][dst]
	seq := st.nextSeq
	st.nextSeq++
	w.mu.Unlock()
	w.route(l.rank, dst, seq, cp) //nolint:netpart/allocfree reason=fault-injection path only; the steady state returns through the inj==nil fast path above, and chaos-mode retry timers may allocate
	return nil
}

// route consults the injector for one message and schedules its delivery:
// drops retry after an RTO (re-consulting the injector, so a healed
// partition lets the retry through), delays deliver late, duplicates are
// suppressed (this transport is reliable; the engine still counts them).
func (w *localWorld) route(src, dst int, seq uint64, data []byte) {
	nowMs := float64(time.Since(w.epoch)) / float64(time.Millisecond)
	fate := w.inj.Packet(src, dst, nowMs)
	switch {
	case fate.Drop:
		time.AfterFunc(w.rto, func() {
			w.mu.Lock()
			dead := w.closed[src] || w.closed[dst]
			w.mu.Unlock()
			if dead {
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
// drains every in-order message into dst's queue. A nil data tombstones
// the sequence number (abandoned delivery) so later messages still flow.
func (w *localWorld) deliverSeq(src, dst int, seq uint64, data []byte) {
	w.mu.Lock()
	defer w.mu.Unlock()
	st := w.streams[src][dst]
	if seq < st.nextDeliver {
		return
	}
	st.held[seq] = data
	delivered := false
	for {
		d, ok := st.held[st.nextDeliver]
		if !ok {
			break
		}
		delete(st.held, st.nextDeliver)
		st.nextDeliver++
		if d != nil && !w.closed[dst] {
			w.queues[dst][src] = append(w.queues[dst][src], d)
			delivered = true
		}
	}
	if delivered {
		w.conds[dst].Broadcast()
	}
}

// popLocked removes and returns the head of dst's queue from src, which
// must be non-empty. When the pop empties the queue, the slice is reset to
// its backing array's start so the window stops sliding and steady-state
// appends stay allocation-free. The caller must hold w.mu.
//
//netpart:hotpath
func (w *localWorld) popLocked(dst, src int) []byte {
	q := w.queues[dst][src]
	msg := q[0]
	if len(q) == 1 {
		w.queues[dst][src] = q[:0]
	} else {
		w.queues[dst][src] = q[1:]
	}
	w.metrics.msgsRecv.Inc()
	w.metrics.bytesRecv.Add(int64(len(msg)))
	return msg
}

// Recv blocks for the next message from src.
func (l *Local) Recv(src int) ([]byte, error) {
	if err := rankCheck(src, l.world.size); err != nil {
		return nil, err
	}
	w := l.world
	// Fast path: a queued message returns without arming the timeout
	// watchdog (a timer allocation per call on the exchange hot path).
	w.mu.Lock()
	if w.closed[l.rank] {
		w.mu.Unlock()
		return nil, ErrClosed
	}
	if len(w.queues[l.rank][src]) > 0 {
		msg := w.popLocked(l.rank, src)
		w.mu.Unlock()
		return msg, nil
	}
	w.mu.Unlock()
	deadline := time.Now().Add(w.recvTimeout)
	// A watchdog wakes the condition variable at the deadline so a blocked
	// receiver can observe the timeout.
	timer := time.AfterFunc(w.recvTimeout, func() {
		w.mu.Lock()
		w.conds[l.rank].Broadcast()
		w.mu.Unlock()
	})
	defer timer.Stop()

	w.mu.Lock()
	defer w.mu.Unlock()
	for {
		if w.closed[l.rank] {
			return nil, ErrClosed
		}
		if len(w.queues[l.rank][src]) > 0 {
			return w.popLocked(l.rank, src), nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("%w: from rank %d", ErrTimeout, src)
		}
		w.conds[l.rank].Wait()
	}
}

// RecvAny blocks for the next message from any peer, scanning queues in
// ascending rank order. d <= 0 means the world's receive timeout.
func (l *Local) RecvAny(d time.Duration) (int, []byte, error) {
	if d <= 0 {
		d = l.world.recvTimeout
	}
	w := l.world
	w.mu.Lock()
	if w.closed[l.rank] {
		w.mu.Unlock()
		return -1, nil, ErrClosed
	}
	for src := 0; src < w.size; src++ {
		if len(w.queues[l.rank][src]) > 0 {
			msg := w.popLocked(l.rank, src)
			w.mu.Unlock()
			return src, msg, nil
		}
	}
	w.mu.Unlock()
	deadline := time.Now().Add(d)
	timer := time.AfterFunc(d, func() {
		w.mu.Lock()
		w.conds[l.rank].Broadcast()
		w.mu.Unlock()
	})
	defer timer.Stop()

	w.mu.Lock()
	defer w.mu.Unlock()
	for {
		if w.closed[l.rank] {
			return -1, nil, ErrClosed
		}
		for src := 0; src < w.size; src++ {
			if len(w.queues[l.rank][src]) > 0 {
				return src, w.popLocked(l.rank, src), nil
			}
		}
		if time.Now().After(deadline) {
			return -1, nil, ErrTimeout
		}
		w.conds[l.rank].Wait()
	}
}

// Recycle implements Recycler: a delivered buffer rejoins the world's free
// list for a later Send to reuse. The caller must not touch buf afterwards.
func (l *Local) Recycle(buf []byte) {
	w := l.world
	w.mu.Lock()
	w.free.put(buf)
	w.mu.Unlock()
}

// Close marks the endpoint closed and wakes blocked receivers.
func (l *Local) Close() error {
	w := l.world
	w.mu.Lock()
	defer w.mu.Unlock()
	w.closed[l.rank] = true
	w.conds[l.rank].Broadcast()
	return nil
}
