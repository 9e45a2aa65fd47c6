package mmps

import (
	"fmt"
	"math/bits"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"
)

const (
	// sendWindow is the most fragments a stream keeps transmitted and
	// unacknowledged, so a large message is clocked out by its acks instead
	// of written in one burst. Linux charges a datagram of the default MTU
	// (1400 + 26 bytes) about 2.3 KB of the receiver's 208 KB default socket
	// buffer, which therefore holds about 90 of them: a window of 32
	// (≈ 45 KB on the wire) lets two peers fill their windows toward one
	// receiver — a stencil rank's two neighbours — and still leaves room
	// for their acks and pings. It is also the width of outStream.acked.
	sendWindow = 32
	// ackStride is how many in-order fragments a receiver lets one ack
	// cover. Half a window: the sender refills one half while the other
	// half's ack travels, and since strides divide the window a receiver
	// never sits on a partial run while the sender waits for it.
	ackStride = sendWindow / 2
)

// Conn is the UDP transport: a real socket per endpoint, with per-stream
// sequencing, range acknowledgment, windowed transmission, retransmission
// and fragmentation/reassembly providing reliable in-order delivery over
// lossy datagrams. It runs one goroutine (the reader) and one timer;
// datagrams are written by whoever makes them sendable — Send's caller for
// an idle stream, the reader when an ack opens the window, the timer when a
// stream has stalled — always after releasing mu.
type Conn struct {
	rank  int
	size  int
	opts  options
	sock  *net.UDPConn
	peers []netip.AddrPort

	epoch      time.Time     // world creation: origin of every deadline and of the injector's clock
	readerDone chan struct{} // closed when the reader exits
	dataPkt    atomic.Int64  // outgoing data datagrams (loss injection)

	mu        sync.Mutex
	delivered *sync.Cond // receivers: delivery, deadline, close
	drained   *sync.Cond // Flush: unfinished == 0, close
	closed    bool
	// sendErr[dst] is the latest unreported delivery failure to dst. It is
	// scoped per destination so one dead peer cannot poison traffic with
	// the survivors, and it is one-shot: Send(dst) and Flush report it and
	// clear it, after which the stream to dst may be retried.
	sendErr    []error
	out        []outStream // per destination
	in         []inStream  // per source
	unfinished int         // messages accepted by Send, neither acknowledged nor failed
	free       freeList    // delivered buffers handed back through Recycle

	// The endpoint's one timer. All times are nanoseconds since epoch and 0
	// means none: rtoAt is the next retransmission pass (set while any
	// stream is busy), wakeAt the earliest deadline of the waiting blocked
	// receivers, timerAt when the timer is armed to fire.
	timer   *time.Timer
	rtoAt   int64
	wakeAt  int64
	timerAt int64
	waiting int
}

// outStream is the sender's half of one source→destination stream. One
// message is in flight at a time: queue[0], fragments [0, base) of which are
// acknowledged and [base, next) transmitted, next <= base+sendWindow.
type outStream struct {
	queue   []*[]byte // pooled message copies in Send order
	seq     uint32    // sequence number of queue[0]
	frags   int       // fragment count of queue[0]
	base    int       // lowest unacknowledged fragment
	next    int       // lowest fragment never transmitted
	acked   uint32    // bit k: fragment base+k is acknowledged
	tries   int       // retransmission passes since the last progress
	stalled bool      // no progress since the previous retransmission pass
}

// inStream is the receiver's half of one stream. It mirrors the sender's one
// message in flight with one reassembly slot: message `expected` is
// assembled in place, fragment i at offset i·MTU of buf, which Recv then
// hands to the application. A sender starts a message only when it is done
// with the one before, so the first fragment of a later message means the
// partial one was given up (retries exhausted) and takes over the slot.
type inStream struct {
	expected  uint32 // the message being reassembled, the next to deliver
	inbox     fifo   // delivered messages
	fragCount uint32 // of message expected; 0 until its first fragment
	low       uint32 // lowest fragment still missing
	have      []bool // per fragment: stored
	buf       []byte
	size      int // message length, known once the last fragment is in
	// The ack being coalesced: fragments [ackLo, ackLo+ackN) of message
	// expected arrived in order, ending at low, and are not yet acknowledged.
	ackLo, ackN uint32
}

// ackRun names the fragments [lo, lo+n) of message seq.
type ackRun struct{ seq, lo, n uint32 }

// NewUDPWorld creates n endpoints on loopback UDP sockets, fully meshed.
func NewUDPWorld(n int, opts ...Option) ([]*Conn, error) {
	if n <= 0 || n > 65535 {
		return nil, fmt.Errorf("mmps: world size %d", n)
	}
	o := defaultOptions()
	for _, opt := range opts {
		opt(&o)
	}
	conns := make([]*Conn, n)
	addrs := make([]netip.AddrPort, n)
	epoch := time.Now()
	for i := 0; i < n; i++ {
		sock, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			for j := 0; j < i; j++ {
				conns[j].sock.Close()
			}
			return nil, fmt.Errorf("mmps: binding endpoint %d: %w", i, err)
		}
		conns[i] = &Conn{rank: i, size: n, opts: o, sock: sock, readerDone: make(chan struct{}), epoch: epoch}
		addrs[i] = sock.LocalAddr().(*net.UDPAddr).AddrPort()
	}
	for _, c := range conns {
		c.peers = addrs
		c.delivered = sync.NewCond(&c.mu)
		c.drained = sync.NewCond(&c.mu)
		c.sendErr = make([]error, n)
		c.out = make([]outStream, n)
		c.in = make([]inStream, n)
		c.timer = time.AfterFunc(time.Hour, c.tick)
		c.timer.Stop()
		go c.reader()
	}
	return conns, nil
}

// Rank returns the endpoint's rank.
func (c *Conn) Rank() int { return c.rank }

// Size returns the world size.
func (c *Conn) Size() int { return c.size }

// now is the endpoint's clock: nanoseconds since the world's epoch.
func (c *Conn) now() int64 { return int64(time.Since(c.epoch)) }

// armLocked makes the timer fire no later than at. Caller holds mu.
func (c *Conn) armLocked(at, now int64) {
	if c.timerAt == 0 || at < c.timerAt {
		c.timerAt = at
		c.timer.Reset(time.Duration(at - now))
	}
}

// Send queues data for reliable in-order delivery to dst (the paper's
// asynchronous send). When the stream to dst is idle the first ackStride
// fragments go out on the caller's goroutine before Send returns; otherwise
// the message waits its turn and the reader transmits it. No ack can come
// back before the last of those first fragments is written, so from the
// first ack on the reader is the stream's only writer and fragments reach
// the peer in order. Delivery failures surface on a later Send, Flush, or
// Close.
func (c *Conn) Send(dst int, data []byte) error {
	if err := rankCheck(dst, c.size); err != nil {
		return err
	}
	if len(data) > c.opts.maxMessage {
		return fmt.Errorf("%w: %d bytes", ErrTooLarge, len(data))
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	if err := c.sendErr[dst]; err != nil {
		c.sendErr[dst] = nil
		c.mu.Unlock()
		return err
	}
	// Pooled copy: Send's contract is that the caller keeps ownership of
	// data. The copy lives in the stream's queue until every fragment is
	// acknowledged (or the message fails, or the endpoint closes) and is
	// only ever read under mu: fragments are encoded into datagram buffers
	// of their own before mu is released for the socket writes.
	cp := getBuf(len(data))
	copy(*cp, data)
	s := &c.out[dst]
	s.queue = append(s.queue, cp)
	c.unfinished++
	var window [sendWindow]*[]byte
	batch := window[:0]
	if len(s.queue) == 1 {
		s.begin(c.opts.mtu)
		batch = c.fillLocked(dst, ackStride, batch)
	}
	c.mu.Unlock()
	c.transmitAll(batch, dst)
	c.opts.metrics.msgsSent.Inc()
	c.opts.metrics.bytesSent.Add(int64(len(data)))
	return nil
}

// begin resets the window for queue[0], which must exist.
func (s *outStream) begin(mtu int) {
	s.frags = max(1, (len(*s.queue[0])+mtu-1)/mtu)
	s.base, s.next, s.acked, s.tries, s.stalled = 0, 0, 0, 0, false
}

// fillLocked encodes every fragment of dst's in-flight message that a
// window of the given width now admits, appends the datagrams to batch for
// the caller to transmit once it has released mu, and keeps the
// retransmission pass scheduled. Caller holds mu.
func (c *Conn) fillLocked(dst, window int, batch []*[]byte) []*[]byte {
	s := &c.out[dst]
	if len(s.queue) == 0 {
		return batch
	}
	first := s.next
	for ; s.next < s.frags && s.next < s.base+window; s.next++ {
		batch = append(batch, c.encodeFragment(dst, s, s.next))
	}
	c.opts.metrics.packetsSent.Add(int64(s.next - first))
	if g := c.opts.metrics.inflightMax; g != nil && float64(s.next-s.base) > g.Value() {
		g.Set(float64(s.next - s.base))
	}
	if c.rtoAt == 0 {
		now := c.now()
		c.rtoAt = now + int64(c.opts.rto)
		c.armLocked(c.rtoAt, now)
	}
	return batch
}

// encodeFragment builds the datagram of fragment i of s's in-flight
// message in a pooled buffer. Caller holds mu.
func (c *Conn) encodeFragment(dst int, s *outStream, i int) *[]byte {
	data := *s.queue[0]
	lo := i * c.opts.mtu
	hi := min(lo+c.opts.mtu, len(data))
	p := packet{
		kind: kindData, src: c.rank, dst: dst, seq: s.seq,
		fragIdx: uint32(i), fragCount: uint32(s.frags), payload: data[lo:hi],
	}
	bp := getBuf(headerSize + hi - lo)
	p.encodeTo(*bp)
	return bp
}

// finishLocked retires dst's in-flight message — acknowledged in full, or
// failed with err — and makes its successor current. Caller holds mu.
func (c *Conn) finishLocked(dst int, err error) {
	s := &c.out[dst]
	putBuf(s.queue[0])
	if len(s.queue) == 1 {
		s.queue[0], s.queue = nil, s.queue[:0]
	} else {
		s.queue = s.queue[1:]
		s.begin(c.opts.mtu)
	}
	s.seq++
	if err != nil && c.sendErr[dst] == nil {
		c.sendErr[dst] = err
	}
	if c.unfinished--; c.unfinished == 0 {
		c.drained.Broadcast()
	}
}

// handleAckLocked credits an ack from src for the fragments [fragIdx,
// fragIdx+fragCount) of message seq, slides the window past every leading
// acknowledged fragment, retires the message when none is left and appends
// whatever became sendable to batch. Only fragments in [base, next) — sent
// and not yet slid past — can be credited, so a forged, stale or wrapped
// ack costs at most a window's work. Caller holds mu.
func (c *Conn) handleAckLocked(p packet, batch []*[]byte) []*[]byte {
	s := &c.out[p.src]
	if len(s.queue) == 0 || p.seq != s.seq {
		return batch
	}
	lo := max(int64(p.fragIdx), int64(s.base))
	hi := min(int64(p.fragIdx)+int64(p.fragCount), int64(s.next))
	if lo >= hi {
		return batch
	}
	acked := s.acked | uint32((uint64(1)<<(hi-lo)-1)<<(lo-int64(s.base)))
	if acked == s.acked {
		return batch
	}
	slide := bits.TrailingZeros32(^acked)
	s.base += slide
	s.acked = acked >> slide
	s.tries, s.stalled = 0, false
	if s.base == s.frags {
		c.finishLocked(p.src, nil)
	}
	return c.fillLocked(p.src, sendWindow, batch)
}

// tick is the endpoint's timer: it wakes receivers whose deadline has come
// and, once per RTO while any stream is busy, runs the retransmission pass.
// A stream that made no progress between two passes has every transmitted,
// unacknowledged fragment re-sent — so a loss is repaired between one and
// two RTOs after it — and fails its message after maxRetries such rounds.
// With no busy stream and no waiting receiver the timer stays unarmed.
func (c *Conn) tick() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.timerAt = 0
	if c.closed {
		return
	}
	now := c.now()
	if c.wakeAt != 0 && now >= c.wakeAt {
		c.wakeAt = 0
		c.delivered.Broadcast()
	}
	if c.rtoAt != 0 && now >= c.rtoAt {
		c.rtoAt = 0
		var window [sendWindow]*[]byte
		for dst := range c.out {
			batch := c.retransmitLocked(dst, window[:0])
			if len(batch) > 0 {
				c.mu.Unlock()
				c.transmitAll(batch, dst)
				c.mu.Lock()
			}
			if len(c.out[dst].queue) > 0 {
				c.rtoAt = now + int64(c.opts.rto)
			}
		}
	}
	next := c.rtoAt
	if c.wakeAt != 0 && (next == 0 || c.wakeAt < next) {
		next = c.wakeAt
	}
	if next != 0 && !c.closed {
		c.armLocked(next, now)
	}
}

// retransmitLocked is one stream's share of a retransmission pass. Caller
// holds mu.
func (c *Conn) retransmitLocked(dst int, batch []*[]byte) []*[]byte {
	s := &c.out[dst]
	switch {
	case len(s.queue) == 0:
	case !s.stalled:
		s.stalled = true
	case s.tries >= c.opts.maxRetries:
		c.finishLocked(dst, fmt.Errorf("%w: to rank %d after %d attempts", ErrSendFailed, dst, c.opts.maxRetries))
		batch = c.fillLocked(dst, sendWindow, batch)
	default:
		s.tries++
		for i := s.base; i < s.next; i++ {
			if s.acked&(1<<(i-s.base)) == 0 {
				batch = append(batch, c.encodeFragment(dst, s, i))
			}
		}
		c.opts.metrics.retransmits.Add(int64(len(batch)))
	}
	return batch
}

// transmitAll writes a batch of encoded datagrams. Caller must not hold mu.
func (c *Conn) transmitAll(batch []*[]byte, dst int) {
	for _, bp := range batch {
		c.transmit(bp, dst)
	}
}

// transmit writes one encoded datagram and recycles its pooled buffer,
// honoring the loss-injection test hook for data packets and, when the
// world has a fault injector, the injected per-packet fate (drop, delay,
// duplicate). Faults apply below the reliability layer — acks included — so
// they surface only as retransmissions and latency. Caller must not hold mu.
func (c *Conn) transmit(bp *[]byte, dst int) {
	buf := *bp
	if n := c.opts.lossEveryNth; n >= 2 && buf[5] == kindData && c.dataPkt.Add(1)%int64(n) == 0 {
		putBuf(bp)
		return
	}
	if inj := c.opts.injector; inj != nil {
		nowMs := float64(c.now()) / float64(time.Millisecond)
		fate := inj.Packet(c.rank, dst, nowMs)
		if fate.Drop {
			putBuf(bp)
			return
		}
		write := func() { c.sock.WriteToUDPAddrPort(buf, c.peers[dst]) }
		if fate.Duplicate {
			write()
		}
		if fate.DelayMs > 0 {
			// The deferred closure still aliases the pooled buffer: recycle
			// it only after the delayed write fires, or the pool could hand
			// the memory to another packet and corrupt this one mid-flight.
			time.AfterFunc(time.Duration(fate.DelayMs*float64(time.Millisecond)), func() {
				write()
				putBuf(bp)
			})
			return
		}
		write()
		putBuf(bp)
		return
	}
	c.sock.WriteToUDPAddrPort(buf, c.peers[dst])
	putBuf(bp)
}

// reader receives datagrams and dispatches data and ack packets until the
// socket closes.
func (c *Conn) reader() {
	defer close(c.readerDone)
	buf := make([]byte, 65536)
	var window [sendWindow]*[]byte
	for {
		n, _, err := c.sock.ReadFromUDPAddrPort(buf)
		if err != nil {
			return // socket closed
		}
		p, err := decodePacket(buf[:n])
		if err != nil || p.dst != c.rank || p.src >= c.size {
			continue // malformed, or not of this world
		}
		switch p.kind {
		case kindAck:
			c.mu.Lock()
			batch := c.handleAckLocked(p, window[:0])
			c.mu.Unlock()
			c.transmitAll(batch, p.src)
		case kindData:
			c.handleData(p)
		}
	}
}

// handleData stores a data fragment and sends the acks it calls for. Acks
// route through transmit so injected faults apply to them too.
func (c *Conn) handleData(p packet) {
	var runs [2]ackRun
	c.mu.Lock()
	acks := c.storeLocked(&c.in[p.src], p, runs[:0])
	c.mu.Unlock()
	for _, a := range acks {
		ack := packet{kind: kindAck, src: c.rank, dst: p.src, seq: a.seq, fragIdx: a.lo, fragCount: a.n}
		bp := getBuf(headerSize)
		ack.encodeTo(*bp)
		c.opts.metrics.acksSent.Inc()
		c.transmit(bp, p.src)
	}
}

// storeLocked files one data fragment, delivers the message it completes,
// and appends the acks now due. Fragments that arrive in order share one
// range ack, sent when their message completes or every ackStride of them.
// Anything else — a duplicate, a fragment of a delivered message, one that
// arrives past a gap or fills one — means the sender is, or soon will be,
// waiting on its retransmission timer, so the pending run and the fragment
// itself are acknowledged at once. A fragment inconsistent with the MTU or
// with its message's fragment count is dropped unacknowledged. Caller
// holds mu.
func (c *Conn) storeLocked(in *inStream, p packet, acks []ackRun) []ackRun {
	if p.seq < in.expected {
		return append(acks, ackRun{p.seq, p.fragIdx, 1}) // delivered, or given up: the ack was lost
	}
	// Every fragment but the last carries exactly MTU bytes (a world's
	// endpoints share their options).
	mtu := c.opts.mtu
	if p.fragIdx >= p.fragCount || int(p.fragCount) > c.opts.maxMessage/mtu+1 ||
		len(p.payload) > mtu || (p.fragIdx+1 < p.fragCount && len(p.payload) != mtu) {
		return acks
	}
	if p.seq > in.expected || in.fragCount == 0 {
		size := int(p.fragCount) * mtu
		if p.fragCount == 1 {
			size = len(p.payload)
		}
		c.free.put(in.buf)
		in.expected, in.fragCount, in.low, in.ackN, in.buf = p.seq, p.fragCount, 0, 0, c.free.take(size)
		if cap(in.have) < int(p.fragCount) {
			in.have = make([]bool, p.fragCount)
		}
		in.have = in.have[:p.fragCount]
		clear(in.have)
	}
	if p.fragCount != in.fragCount {
		return acks
	}
	inOrder := p.fragIdx == in.low
	if !in.have[p.fragIdx] {
		off := int(p.fragIdx) * mtu
		copy(in.buf[off:], p.payload)
		if p.fragIdx+1 == in.fragCount {
			in.size = off + len(p.payload)
		}
		in.have[p.fragIdx] = true
		for in.low < in.fragCount && in.have[in.low] {
			in.low++
		}
	}
	inOrder = inOrder && in.low == p.fragIdx+1
	if in.ackN > 0 && !inOrder {
		acks = append(acks, ackRun{p.seq, in.ackLo, in.ackN})
		in.ackN = 0
	}
	if in.ackN == 0 {
		in.ackLo = p.fragIdx
	}
	in.ackN++
	if complete := in.low == in.fragCount; complete || !inOrder || in.ackN == ackStride {
		acks = append(acks, ackRun{p.seq, in.ackLo, in.ackN})
		in.ackN = 0
		if complete {
			in.inbox.push(in.buf[:in.size])
			in.expected, in.fragCount, in.buf = in.expected+1, 0, nil
			c.delivered.Broadcast()
		}
	}
	return acks
}

// popLocked removes and returns the head of src's inbox, which must be
// non-empty. Caller holds mu.
func (c *Conn) popLocked(src int) []byte {
	msg := c.in[src].inbox.pop()
	c.opts.metrics.msgsRecv.Inc()
	c.opts.metrics.bytesRecv.Add(int64(len(msg)))
	return msg
}

// recv blocks for the next message from a source in [lo, hi), scanning
// inboxes in ascending rank order, for at most d. The deadline is announced
// by the endpoint's timer: a blocked receiver records it in wakeAt, and the
// last one to leave disarms a timer nothing else needs.
func (c *Conn) recv(lo, hi int, d time.Duration) (int, []byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var deadline int64
	for {
		if c.closed {
			return -1, nil, ErrClosed
		}
		for src := lo; src < hi; src++ {
			if c.in[src].inbox.n > 0 {
				return src, c.popLocked(src), nil
			}
		}
		now := c.now()
		if deadline == 0 {
			deadline = now + int64(d)
		}
		if now >= deadline {
			return -1, nil, ErrTimeout
		}
		if c.wakeAt == 0 || deadline < c.wakeAt {
			c.wakeAt = deadline
		}
		c.armLocked(deadline, now)
		c.waiting++
		c.delivered.Wait()
		if c.waiting--; c.waiting == 0 {
			c.wakeAt = 0
			if c.rtoAt == 0 && !c.closed {
				c.timer.Stop()
				c.timerAt = 0
			}
		}
	}
}

// Recv blocks for the next message from src, up to the receive timeout.
func (c *Conn) Recv(src int) ([]byte, error) { return recvFrom(c, src, c.size, c.opts.recvTimeout) }

// RecvAny blocks for the next message from any peer, scanning inboxes in
// ascending rank order. d <= 0 means the world's receive timeout.
func (c *Conn) RecvAny(d time.Duration) (int, []byte, error) {
	if d <= 0 {
		d = c.opts.recvTimeout
	}
	return c.recv(0, c.size, d)
}

// Recycle implements Recycler: a delivered buffer rejoins the endpoint's
// free list for a later reassembly to reuse. The caller must not touch buf
// afterwards.
func (c *Conn) Recycle(buf []byte) {
	c.mu.Lock()
	c.free.put(buf)
	c.mu.Unlock()
}

// Flush blocks until every send queued so far has been acknowledged or
// failed, then reports (and clears) the first pending per-destination
// delivery failure, if any.
func (c *Conn) Flush() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.unfinished > 0 && !c.closed {
		c.drained.Wait()
	}
	if c.closed {
		return ErrClosed
	}
	for dst, err := range c.sendErr {
		if err != nil {
			c.sendErr[dst] = nil
			return err
		}
	}
	return nil
}

// Close shuts the endpoint down: queued and in-flight sends are abandoned
// (their copies recycled), and blocked receivers and Flush return
// ErrClosed.
func (c *Conn) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	for dst := range c.out {
		s := &c.out[dst]
		for _, cp := range s.queue {
			putBuf(cp)
		}
		s.queue = nil
	}
	c.unfinished = 0
	c.timer.Stop()
	c.delivered.Broadcast()
	c.drained.Broadcast()
	c.mu.Unlock()
	err := c.sock.Close()
	<-c.readerDone
	return err
}
