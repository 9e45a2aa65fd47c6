// Package simnet is a deterministic discrete-event simulator of the
// paper's heterogeneous network substrate: shared-channel ethernet segments
// that serialize frame transmissions (so contention grows linearly with the
// number of stations, as the paper observes), a store-and-forward router
// joining segments with a per-byte delay, per-byte data coercion between
// clusters of different formats, and host send/receive processing costs.
//
// Simulated tasks are goroutines that pass a baton: exactly one goroutine
// — a running task, or Run before the first task starts — holds the event
// queue and the simulation state at a time, and only the holder reads or
// writes them. Tasks advance the virtual clock by blocking in Advance,
// Send, and Recv; a blocking task keeps the baton and runs the event loop
// itself, handling router hops and deliveries inline until an event wakes
// a task. If that is the task itself it carries on without a goroutine
// switch; otherwise it hands the baton to the woken task and waits for its
// own wake. Runs are fully deterministic — the event queue is ordered by
// (virtual time, sequence number) and the simulation uses no wall-clock
// time or randomness — so which goroutine runs an event never changes what
// the event does.
//
// Why this produces Eq. 1 costs: a message of b bytes from a cluster with
// per-message channel occupancy σ (model.Cluster.MsgOverheadMs) and host
// per-byte processing h (HostPerByteMs) on a segment of rate R
// (BytesPerMs) holds the shared channel for σ + b·(1/R + h). A synchronous
// 1-D exchange among p stations serializes 2(p-1) such holds, giving a
// cycle time with latency slope 2σ per processor and bandwidth slope
// 2·(1/R + h) per byte per processor — exactly the c2·p and c4·p·b terms
// the paper fits.
//
//netpart:deterministic
package simnet

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"netpart/internal/faults"
	"netpart/internal/model"
)

// CPU costs of initiating an asynchronous send and of consuming a received
// message, in milliseconds. These are deliberately small: the dominant
// per-message cost is the channel occupancy σ, which is what the paper's
// latency constants capture.
const (
	SendCPUMs = 0.05
	RecvCPUMs = 0.05
)

// event is one scheduled action. Every action the simulator itself takes
// — a wake, a router hop, a delivery — is typed,
// with its operands in fields, so the loop recycles event structs through
// a free list instead of allocating one struct plus one closure per event.
// Only the fault injector's retry and delay paths carry a closure (fn).
type event struct {
	at   float64
	seq  int64
	kind eventKind
	p    *Proc    // the task woken, or the message's destination
	msg  *Message // evHop, evDeliver
	fn   func()   // evFn
}

type eventKind uint8

const (
	evWake    eventKind = iota // resume p
	evHop                      // msg leaves the router onto p's segment
	evDeliver                  // msg reaches p's mailbox
	evFn                       // run fn
)

// maxFree bounds the event and message free lists. The live set of events
// and messages is proportional to tasks plus in-flight messages, so a pool's
// high-water mark is small; the cap only guards against a pathological
// burst pinning memory forever.
const maxFree = 4096

// before is the event order: virtual time, then sequence number. Sequence
// numbers are unique, so the order is total and pop order does not depend
// on the heap's layout.
func (e *event) before(o *event) bool {
	return e.at < o.at || e.at == o.at && e.seq < o.seq
}

// eventQueue is a binary min-heap of events under before, typed so that no
// push or pop boxes an event in an interface.
type eventQueue []*event

//netpart:hotpath
func (q *eventQueue) push(ev *event) {
	h := append(*q, ev)
	for i := len(h) - 1; i > 0; {
		up := (i - 1) / 2
		if !h[i].before(h[up]) {
			break
		}
		h[i], h[up] = h[up], h[i]
		i = up
	}
	*q = h
}

//netpart:hotpath
func (q *eventQueue) pop() *event {
	h := *q
	n := len(h) - 1
	top := h[0]
	h[0], h[n] = h[n], nil
	h = h[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1].before(h[c]) {
			c++
		}
		if !h[c].before(h[i]) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	*q = h
	return top
}

// msgQueue is a FIFO of messages that keeps its backing array: pop
// advances a head index instead of reslicing (which leaves the next append
// no room), and push slides the live messages to the front only when the
// array is full. A queue that drains now and then never reallocates.
type msgQueue struct {
	items []*Message
	head  int
}

func (q *msgQueue) len() int { return len(q.items) - q.head }

//netpart:hotpath
func (q *msgQueue) push(msg *Message) {
	if q.head > 0 && len(q.items) == cap(q.items) {
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items, q.head = q.items[:n], 0
	}
	q.items = append(q.items, msg)
}

//netpart:hotpath
func (q *msgQueue) pop() *Message {
	msg := q.items[q.head]
	q.items[q.head] = nil
	q.head++
	if q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0
	}
	return msg
}

// segment tracks the shared channel of one network segment as a FIFO
// resource: transmissions are served in arrival order, each holding the
// channel for its full occupancy.
type segment struct {
	spec   *model.Segment
	freeAt float64
	// Stats.
	busyMs   float64
	messages int64
	bytes    int64
}

// Message is a delivered payload. Bytes is the message size; Payload is an
// optional application value carried through the simulation (e.g. border
// rows), not charged against the network.
type Message struct {
	From    *Proc
	Bytes   int
	Payload interface{}
	// SentAt and DeliveredAt are virtual times in milliseconds.
	SentAt      float64
	DeliveredAt float64
}

// Sim is one simulation instance bound to a network model.
type Sim struct {
	net      *model.Network
	segments map[string]*segment
	now      float64
	seq      int64
	events   eventQueue
	free     []*event   // recycled event structs (see event)
	freeMsgs []*Message // recycled message structs (see Proc.Recv)
	procs    []*Proc
	running  bool
	// launched counts the procs whose goroutines Run has started; tasks
	// counts those goroutines still alive.
	launched int
	tasks    sync.WaitGroup
	// idle carries the baton back to Run: from whichever goroutine empties
	// the event queue, and from each blocked task Run unwinds.
	idle chan struct{}
	// releasing is set while Run unwinds the tasks a drained queue left
	// blocked (see Run).
	releasing bool
	// handoffs counts baton passes between goroutines while countHandoffs
	// is set.
	handoffs int

	// jitterFrac > 0 scales every channel hold by a deterministic
	// pseudo-random factor in [1-f, 1+f], modeling the paper's observation
	// that UDP communication costs are nondeterministic and the fitted
	// functions are averages. Zero disables (fully deterministic).
	jitterFrac float64
	rngState   uint64

	// onDeliver, when non-nil, observes every message at delivery time.
	onDeliver func(Delivery)

	// inj, when non-nil, decides per-message fates (drop → retransmit
	// after injRtoMs, delay → later transmission); see WithFaultInjector.
	inj        faults.Injector
	injRtoMs   float64
	injStreams map[[2]int]*injStream
}

// injStream serializes fault-injected transmissions per (src, dst) pair,
// emulating a reliable in-order transport: at most one message is in its
// loss/retry phase at a time, and successors wait behind it. A dropped
// head therefore delays everything after it (head-of-line blocking), so
// injected loss costs latency without ever reordering delivery.
type injStream struct {
	dst   *Proc
	queue msgQueue
	busy  bool
}

// Delivery describes one delivered message for observers: who sent it,
// who received it, its size, and its full virtual-time transit interval
// (send initiation to mailbox arrival, including channel and router
// queueing).
type Delivery struct {
	From, To      *Proc
	Bytes         int
	SentAtMs      float64
	DeliveredAtMs float64
}

// Option configures a simulation.
type Option func(*Sim)

// WithJitter makes channel occupancy times vary by up to ±frac around
// their nominal values, driven by a seeded xorshift generator — still
// fully reproducible for a given seed, but no longer exactly linear, so
// least-squares fits become genuine averages (Section 3.0's "average
// case" caveat).
func WithJitter(frac float64, seed uint64) Option {
	return func(s *Sim) {
		s.jitterFrac = frac
		s.rngState = seed | 1
	}
}

// WithMessageObserver registers fn to be called at every message delivery
// with the message's transit record. Observers let higher layers (spmd)
// build latency histograms without the simulator depending on them; fn
// runs on whichever goroutine holds the baton and must not block.
func WithMessageObserver(fn func(Delivery)) Option {
	return func(s *Sim) { s.onDeliver = fn }
}

// simMaxRetries bounds injected-drop retransmissions per message; a
// message dropped more often is lost, and the blocked receiver shows up
// in Run's deadlock report instead of the run hanging.
const simMaxRetries = 200

// WithFaultInjector routes every simulated message through a fault
// injector, emulating a reliable transport over a faulty network in
// virtual time: a dropped message is retransmitted retransmitMs later
// (re-consulting the injector, so healed partitions resume delivery), a
// delayed message transits late, and duplicates are suppressed. Runs stay
// fully deterministic for a deterministic injector.
func WithFaultInjector(inj faults.Injector, retransmitMs float64) Option {
	return func(s *Sim) {
		s.inj = inj
		s.injRtoMs = retransmitMs
		if s.injRtoMs <= 0 {
			s.injRtoMs = 1
		}
	}
}

// jitterMul returns the next hold-time multiplier.
func (s *Sim) jitterMul() float64 {
	if s.jitterFrac <= 0 {
		return 1
	}
	// xorshift64
	x := s.rngState
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	s.rngState = x
	u := float64(x>>11) / float64(1<<53) // [0,1)
	return 1 + s.jitterFrac*(2*u-1)
}

// countHandoffs turns on the Sim.handoffs count. Only the tests set it and
// read the count, to hold a task that wakes itself to zero goroutine
// switches; like stencil's useAVX2 it is a plain package variable.
var countHandoffs = false

// New creates a simulation over the given validated network.
func New(net *model.Network, opts ...Option) (*Sim, error) {
	if err := net.Validate(); err != nil {
		return nil, err
	}
	s := &Sim{
		net:        net,
		segments:   make(map[string]*segment, len(net.Segments)),
		idle:       make(chan struct{}),
		injStreams: make(map[[2]int]*injStream),
	}
	for _, seg := range net.Segments {
		s.segments[seg.Name] = &segment{spec: seg}
	}
	for _, opt := range opts {
		opt(s)
	}
	return s, nil
}

// Now returns the current virtual time in milliseconds.
func (s *Sim) Now() float64 { return s.now }

// alloc takes an event struct off the free list (or allocates one),
// stamped with the clamped time and the next sequence number.
//
//netpart:hotpath
func (s *Sim) alloc(at float64) *event {
	if at < s.now {
		at = s.now
	}
	s.seq++
	if len(s.free) == 0 {
		return &event{at: at, seq: s.seq}
	}
	n := len(s.free)
	ev := s.free[n-1]
	s.free[n-1] = nil
	s.free = s.free[:n-1]
	ev.at = at
	ev.seq = s.seq
	return ev
}

// schedule queues a typed event at virtual time at (clamped to now) and
// returns it, for the caller to fill in fn.
//
//netpart:hotpath
func (s *Sim) schedule(at float64, kind eventKind, p *Proc, msg *Message) *event {
	ev := s.alloc(at)
	ev.kind, ev.p, ev.msg = kind, p, msg
	s.events.push(ev)
	return ev
}

// run is the event loop, executed by whichever goroutine holds the baton.
// It pops events in (at, seq) order, running hops, deliveries and injector
// actions inline, until one wakes a task, and returns that task — or nil
// once the queue is empty.
func (s *Sim) run() *Proc {
	for len(s.events) > 0 {
		ev := s.events.pop()
		s.now = ev.at
		// Recycle before dispatch: the action's fields are copied out, so
		// anything the action schedules may reuse this struct immediately.
		kind, p, msg, fn := ev.kind, ev.p, ev.msg, ev.fn
		ev.p, ev.msg, ev.fn = nil, nil, nil
		if len(s.free) < maxFree {
			s.free = append(s.free, ev)
		}
		switch kind {
		case evWake:
			return p
		case evHop:
			s.hop(msg, p)
		case evDeliver:
			s.deliver(msg, p)
		case evFn:
			fn()
		}
	}
	return nil
}

// pass hands the baton to next, or back to Run when the queue is empty
// (next == nil). The caller must not touch the simulation afterwards until
// the baton comes back to it.
func (s *Sim) pass(next *Proc) {
	if next == nil {
		s.idle <- struct{}{}
		return
	}
	if countHandoffs {
		s.handoffs++
	}
	next.resume <- struct{}{}
}

// Proc is one simulated task: a goroutine that advances only in virtual
// time. All Proc methods must be called from within the task body.
type Proc struct {
	sim     *Sim
	name    string
	cluster *model.Cluster
	rank    int
	body    func(*Proc)
	// resume hands p the baton.
	resume   chan struct{}
	done     bool
	panicked error

	// mailboxes holds queued messages per sender rank (indexed by rank;
	// sized once in Run, when the rank count is final).
	mailboxes []msgQueue
	// waitingOn is the sender rank a blocked Recv is waiting for, or -1.
	waitingOn int

	// Stats.
	computeMs     float64
	sent          int64
	received      int64
	bytesSent     int64
	bytesReceived int64
}

// Rank returns the task's rank (spawn order).
func (p *Proc) Rank() int { return p.rank }

// Name returns the task's name.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() float64 { return p.sim.now }

// Spawn creates a task on the named cluster. The body runs when Run is
// called. Spawn panics on an unknown cluster (a programming error).
func (s *Sim) Spawn(name, cluster string, body func(*Proc)) *Proc {
	if s.running {
		panic("simnet: Spawn during Run")
	}
	c := s.net.Cluster(cluster)
	if c == nil {
		panic(fmt.Sprintf("simnet: unknown cluster %q", cluster))
	}
	p := &Proc{
		sim:       s,
		name:      name,
		cluster:   c,
		rank:      len(s.procs),
		body:      body,
		resume:    make(chan struct{}, 1),
		waitingOn: -1,
	}
	s.procs = append(s.procs, p)
	s.schedule(0, evWake, p, nil)
	return p
}

// live is the life of p's goroutine: wait for the baton, run the body, and
// pass the baton on when the body returns or panics.
func (p *Proc) live() {
	s := p.sim
	defer func() {
		r := recover()
		if s.releasing {
			s.idle <- struct{}{} // unwound by Run: nothing to report
			return
		}
		if r != nil {
			p.panicked = fmt.Errorf("simnet: task %s panicked: %v", p.name, r)
		}
		p.done = true
		s.pass(s.run())
	}()
	p.wait()
	p.body(p)
}

// park blocks p until its next wake. The parking goroutine keeps the baton
// and runs the event loop itself: if the next wake is p's own, park returns
// with no goroutine switch; otherwise it hands the baton to the woken task
// (or, with the queue empty, back to Run) and waits for it to come back.
func (p *Proc) park() {
	s := p.sim
	if s.releasing {
		runtime.Goexit() // a deferred call of a task Run is unwinding
	}
	next := s.run()
	if next == p {
		return
	}
	s.pass(next)
	p.wait()
}

// wait blocks until p holds the baton. When Run is unwinding a deadlock
// instead, p's goroutine exits, running its deferred calls.
func (p *Proc) wait() {
	<-p.resume
	if p.sim.releasing {
		runtime.Goexit()
	}
}

// Run executes the simulation until no events remain. It returns an error
// if a task panicked, or if any task is still blocked (deadlock) when the
// event queue drains. No task goroutine outlives Run: it unwinds the
// blocked tasks before returning, and a task it unwound counts as finished.
func (s *Sim) Run() error {
	if s.running {
		return fmt.Errorf("simnet: Run reentered")
	}
	s.running = true
	defer func() { s.running = false }()
	// Size every task's per-sender mailbox table once: Spawn is forbidden
	// during Run, so the rank count is final here and delivery indexes the
	// slice directly with no map hashing and no growth.
	for _, p := range s.procs {
		if len(p.mailboxes) < len(s.procs) {
			grown := make([]msgQueue, len(s.procs))
			copy(grown, p.mailboxes)
			p.mailboxes = grown
		}
	}
	for _, p := range s.procs[s.launched:] {
		s.tasks.Add(1)
		go func() {
			defer s.tasks.Done()
			p.live()
		}()
	}
	s.launched = len(s.procs)
	// Run holds the baton until the first wake, and gets it back from
	// whichever goroutine empties the queue.
	if next := s.run(); next != nil {
		s.pass(next)
		<-s.idle
	}
	var err error
	var stuck []string
	for _, p := range s.procs {
		if p.panicked != nil && err == nil {
			err = p.panicked
		}
		if !p.done {
			stuck = append(stuck, fmt.Sprintf("%s (recv from rank %d)", p.name, p.waitingOn))
		}
	}
	// Unwind the blocked tasks in rank order, one at a time, so that each
	// runs its deferred calls with the simulation to itself; then join
	// every task goroutine.
	s.releasing = true
	for _, p := range s.procs {
		if !p.done {
			p.done, p.waitingOn = true, -1
			p.resume <- struct{}{}
			<-s.idle
		}
	}
	s.tasks.Wait()
	s.releasing = false
	if err == nil && len(stuck) > 0 {
		sort.Strings(stuck)
		err = fmt.Errorf("simnet: deadlock, %d tasks blocked: %v", len(stuck), stuck)
	}
	return err
}

// Advance spends ms milliseconds of virtual time computing.
//
//netpart:hotpath
func (p *Proc) Advance(ms float64) {
	if ms < 0 {
		panic("simnet: negative advance")
	}
	p.computeMs += ms
	s := p.sim
	s.schedule(s.now+ms, evWake, p, nil)
	p.park()
}

// AdvanceOps spends the virtual time of executing n operations of the given
// class at this task's cluster speed.
func (p *Proc) AdvanceOps(n float64, class model.OpClass) {
	p.Advance(n * p.cluster.OpTime(class))
}

// Send asynchronously transmits a message of the given size to dst. The
// sender is charged a small CPU initiation cost (plus per-byte coercion if
// the destination cluster uses a different data format); the transmission
// itself then serializes through the shared channel(s) and router without
// blocking the sender.
func (p *Proc) Send(dst *Proc, bytes int, payload interface{}) {
	if bytes < 0 {
		panic(fmt.Sprintf("simnet: negative message size %d", bytes))
	}
	s := p.sim
	cpu := SendCPUMs
	if p.cluster.Format != dst.cluster.Format {
		cpu += s.net.Coerce.PerByteMs * float64(bytes)
	}
	p.sent++
	p.bytesSent += int64(bytes)
	var msg *Message
	if n := len(s.freeMsgs); n > 0 {
		msg, s.freeMsgs = s.freeMsgs[n-1], s.freeMsgs[:n-1]
	} else {
		msg = new(Message)
	}
	*msg = Message{From: p, Bytes: bytes, Payload: payload, SentAt: s.now + cpu}
	// CPU initiation happens inline; the transmission is scheduled at its
	// completion.
	p.Advance(cpu)
	s.transmit(msg, dst)
}

// transmit routes one message: straight through the substrate, or through
// the fault injector's reliable-stream emulation when one is configured.
func (s *Sim) transmit(msg *Message, dst *Proc) {
	if s.inj == nil {
		s.transmitClean(msg, dst)
		return
	}
	key := [2]int{msg.From.rank, dst.rank}
	st := s.injStreams[key]
	if st == nil {
		st = &injStream{dst: dst}
		s.injStreams[key] = st
	}
	st.queue.push(msg)
	if !st.busy {
		s.injPump(st)
	}
}

// injPump starts the loss/retry phase for the stream head. Only one
// message per (src, dst) pair is in this phase at a time: that is what
// makes injected drops cost wall time — every retransmission RTO pushes
// back the head's entry into the channel and, transitively, every
// successor's.
func (s *Sim) injPump(st *injStream) {
	if st.queue.len() == 0 {
		st.busy = false
		return
	}
	st.busy = true
	s.injAttempt(st, st.queue.pop(), 0)
}

// injAttempt consults the injector for one transmission attempt of the
// stream head. Injected drops model a lost datagram: the reliability
// layer retries one RTO later, so the drop costs latency, never data.
// Injected delays add transit time; duplicates are suppressed (reliable
// delivery semantics). A message dropped past simMaxRetries is lost and
// stalls its stream, surfacing as a blocked receiver in Run's deadlock
// report — the behavior of a reliable transport over a dead link.
func (s *Sim) injAttempt(st *injStream, msg *Message, attempt int) {
	fate := s.inj.Packet(msg.From.rank, st.dst.rank, s.now)
	switch {
	case fate.Drop:
		if attempt >= simMaxRetries {
			return // lost: stream stalls, Run reports the blocked receiver
		}
		s.schedule(s.now+s.injRtoMs, evFn, nil, nil).fn = func() { s.injAttempt(st, msg, attempt+1) }
	case fate.DelayMs > 0:
		s.schedule(s.now+fate.DelayMs, evFn, nil, nil).fn = func() {
			s.transmitClean(msg, st.dst)
			s.injPump(st)
		}
	default:
		s.transmitClean(msg, st.dst)
		s.injPump(st)
	}
}

// transmitClean pushes msg through the sender's segment, then (if needed)
// the router and the destination segment (hop), and finally delivers it.
func (s *Sim) transmitClean(msg *Message, dst *Proc) {
	from := msg.From.cluster
	b := float64(msg.Bytes)
	src := s.segments[from.Segment]
	hold := (from.MsgOverheadMs + b*(1/src.spec.BytesPerMs+from.HostPerByteMs)) * s.jitterMul()
	doneSrc := src.acquire(s.now, hold)
	src.messages++
	src.bytes += int64(msg.Bytes)

	if from.Segment == dst.cluster.Segment {
		s.schedule(doneSrc, evDeliver, dst, msg)
		return
	}
	// Store-and-forward through the router, then the destination segment.
	routed := doneSrc + s.net.Router.PerMessageMs + s.net.Router.PerByteMs*b
	s.schedule(routed, evHop, dst, msg)
}

// hop carries msg from the router onto dst's segment.
func (s *Sim) hop(msg *Message, dst *Proc) {
	b := float64(msg.Bytes)
	dseg := s.segments[dst.cluster.Segment]
	dhold := (dst.cluster.MsgOverheadMs + b*(1/dseg.spec.BytesPerMs+dst.cluster.HostPerByteMs)) * s.jitterMul()
	doneDst := dseg.acquire(s.now, dhold)
	dseg.messages++
	dseg.bytes += int64(msg.Bytes)
	s.schedule(doneDst, evDeliver, dst, msg)
}

// acquire reserves the channel FIFO for hold ms starting no earlier than
// now, returning the completion time.
func (seg *segment) acquire(now, hold float64) float64 {
	start := now
	if seg.freeAt > start {
		start = seg.freeAt
	}
	seg.freeAt = start + hold
	seg.busyMs += hold
	return seg.freeAt
}

// deliver places msg in dst's mailbox and wakes dst if it is blocked on a
// matching Recv.
func (s *Sim) deliver(msg *Message, dst *Proc) {
	msg.DeliveredAt = s.now
	dst.bytesReceived += int64(msg.Bytes)
	if s.onDeliver != nil {
		s.onDeliver(Delivery{
			From: msg.From, To: dst, Bytes: msg.Bytes,
			SentAtMs: msg.SentAt, DeliveredAtMs: msg.DeliveredAt,
		})
	}
	from := msg.From.rank
	dst.mailboxes[from].push(msg)
	if dst.waitingOn == from {
		dst.waitingOn = -1
		s.schedule(s.now, evWake, dst, nil)
	}
}

// Recv blocks until a message from src is available, consumes it (charging
// the receive CPU cost), and returns it. Messages from the same sender are
// received in transmission order. The message is returned by value: its
// struct goes back to the simulator's free list for the next Send.
func (p *Proc) Recv(src *Proc) Message {
	box := &p.mailboxes[src.rank]
	for box.len() == 0 {
		p.waitingOn = src.rank
		p.park()
	}
	s := p.sim
	ptr := box.pop()
	msg := *ptr
	*ptr = Message{}
	if len(s.freeMsgs) < maxFree {
		s.freeMsgs = append(s.freeMsgs, ptr)
	}
	p.received++
	p.Advance(RecvCPUMs)
	return msg
}

// SegmentStats reports channel usage for one segment.
type SegmentStats struct {
	Name     string
	BusyMs   float64
	Messages int64
	Bytes    int64
}

// Stats returns per-segment channel usage, sorted by segment name.
func (s *Sim) Stats() []SegmentStats {
	out := make([]SegmentStats, 0, len(s.segments))
	for name, seg := range s.segments {
		out = append(out, SegmentStats{
			Name: name, BusyMs: seg.busyMs, Messages: seg.messages, Bytes: seg.bytes,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ProcStats reports one task's activity.
type ProcStats struct {
	Name          string
	Cluster       string
	ComputeMs     float64
	Sent          int64
	Received      int64
	BytesSent     int64
	BytesReceived int64
}

// ProcStats returns per-task activity in rank order.
func (s *Sim) ProcStats() []ProcStats {
	out := make([]ProcStats, 0, len(s.procs))
	for _, p := range s.procs {
		out = append(out, ProcStats{
			Name: p.name, Cluster: p.cluster.Name,
			ComputeMs: p.computeMs, Sent: p.sent, Received: p.received,
			BytesSent: p.bytesSent, BytesReceived: p.bytesReceived,
		})
	}
	return out
}
