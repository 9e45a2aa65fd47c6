// Package simnet is a deterministic discrete-event simulator of the
// paper's heterogeneous network substrate: shared-channel ethernet segments
// that serialize frame transmissions (so contention grows linearly with the
// number of stations, as the paper observes), a store-and-forward router
// joining segments with a per-byte delay, per-byte data coercion between
// clusters of different formats, and host send/receive processing costs.
//
// A simulated task is one of two kinds. A goroutine task (Spawn) runs a
// body on a goroutine of its own and advances the virtual clock by blocking
// in Advance, Send and Recv; its body may block anywhere. A step task
// (SpawnStep) is a small state machine with no goroutine: the simulator
// calls its step function at each of its wakes, and each call starts a
// send, tries a receive, computes, or finishes. The offline benchmark
// programs are step tasks; everything whose body blocks in the middle of
// its own code (spmd, and so every stencil run) is goroutine tasks.
//
// Goroutine tasks pass a baton: exactly one goroutine — a running task, or
// Run before the first task starts — holds the event queue and the
// simulation state at a time, and only the holder reads or writes them. A
// blocking task keeps the baton and runs the event loop itself, handling
// router hops, deliveries and step-task wakes inline until an event wakes a
// goroutine task. If that is the task itself it carries on without a
// goroutine switch; otherwise it hands the baton to the woken task and
// waits for its own wake. A run of step tasks alone is one loop on Run's
// goroutine. Runs are fully deterministic — the event queue is ordered by
// (virtual time, sequence number) and the simulation uses no wall-clock
// time or randomness — so which goroutine runs an event, and which kind of
// task makes a send or a receive, never changes what the event does.
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

// event is one scheduled action. Every action the simulator takes — a
// wake, the end of a send's CPU, a router hop, a delivery, a fault
// injector's retransmission or delayed transmission — is typed, with its
// operands in fields, so the loop recycles event structs through a free
// list instead of allocating one struct plus one closure per event.
type event struct {
	at   float64
	seq  int64
	kind eventKind
	p    *Proc    // the task woken, or the message's destination
	msg  *Message // every kind but evWake
}

type eventKind uint8

const (
	evWake    eventKind = iota // resume p
	evSend                     // msg's send CPU ends: transmit it to p, resume msg.From
	evHop                      // msg leaves the router onto p's segment
	evDeliver                  // msg reaches p's mailbox
	evRetry                    // an injected drop's retransmission of msg to p
	evDelayed                  // an injected delay ends: transmit msg to p
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
	// hopAt is, in a mailbox, when the sender's last routed message to
	// this task left the router (see transmitClean).
	hopAt float64
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
	// the event queue, and from each blocked task Run unwinds. Made by the
	// first Spawn: a run of step tasks passes no baton.
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
	inj      faults.Injector
	injRtoMs float64
}

// injStream serializes fault-injected transmissions per (src, dst) pair,
// emulating a reliable in-order transport: at most one message is in its
// loss/retry phase at a time, and successors wait behind it. A dropped
// head therefore delays everything after it (head-of-line blocking), so
// injected loss costs latency without ever reordering delivery.
type injStream struct {
	dst     *Proc
	queue   msgQueue
	busy    bool
	attempt int // the head's transmissions dropped so far
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
		net:      net,
		segments: make(map[string]*segment, len(net.Segments)),
	}
	for _, seg := range net.Segments {
		s.segments[seg.Name] = &segment{spec: seg}
	}
	for _, opt := range opts {
		opt(s)
	}
	return s, nil
}

// Reset readies s for another Run over the same network, as New would
// with opts, without validating the network again, and keeps what s has
// allocated: the event and message free lists, the heap's array, and the
// task structs with their mailbox tables, which the next run's spawns
// take in rank order. A run after Reset is bit for bit the run of a fresh
// simulator. Every task of the previous run is invalid after Reset, and
// it must not be called during Run.
func (s *Sim) Reset(opts ...Option) {
	if s.running {
		panic("simnet: Reset during Run")
	}
	for _, ev := range s.events { // queued by spawns that no Run followed
		*ev = event{}
		if len(s.free) < maxFree {
			s.free = append(s.free, ev)
		}
	}
	clear(s.events)
	*s = Sim{net: s.net, segments: s.segments, events: s.events[:0], free: s.free, freeMsgs: s.freeMsgs, procs: s.procs[:0], idle: s.idle}
	for _, seg := range s.segments {
		*seg = segment{spec: seg.spec}
	}
	for _, opt := range opts {
		opt(s)
	}
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

// schedule queues a typed event at virtual time at (clamped to now).
//
//netpart:hotpath
func (s *Sim) schedule(at float64, kind eventKind, p *Proc, msg *Message) {
	ev := s.alloc(at)
	ev.kind, ev.p, ev.msg = kind, p, msg
	s.events.push(ev)
}

// run is the event loop, executed by whichever goroutine holds the baton.
// It pops events in (at, seq) order, running transmissions, hops,
// deliveries, injector actions and step tasks inline, until one wakes a
// goroutine task, and returns that task — or nil once the queue is empty.
func (s *Sim) run() *Proc {
	for len(s.events) > 0 {
		ev := s.events.pop()
		s.now = ev.at
		// Recycle before dispatch: the action's fields are copied out, so
		// anything the action schedules may reuse this struct immediately.
		kind, p, msg := ev.kind, ev.p, ev.msg
		ev.p, ev.msg = nil, nil
		if len(s.free) < maxFree {
			s.free = append(s.free, ev)
		}
		switch kind {
		case evSend:
			// Where Send transmits after its CPU charge: before anything
			// else runs at this time.
			from := msg.From
			s.transmit(msg, p)
			if from.step != nil {
				s.runStep(from)
				continue
			}
			return from
		case evWake:
			if p.step != nil {
				s.runStep(p)
				continue
			}
			return p
		case evHop:
			s.hop(msg, p)
		case evDeliver:
			s.deliver(msg, p)
		case evRetry:
			s.injAttempt(&msg.From.streams[p.rank], msg)
		case evDelayed:
			s.transmitClean(msg, p)
			s.injPump(&msg.From.streams[p.rank])
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

// Proc is one simulated task, advancing only in virtual time: a goroutine
// task or a step task (see the package comment). A goroutine task's methods
// must be called from within its body, a step task's from its step
// function.
type Proc struct {
	sim     *Sim
	name    string
	cluster *model.Cluster
	seg     *segment // the cluster's segment, resolved once at spawn
	rank    int
	body    func(*Proc)
	// step is a step task's step function; nil for a goroutine task.
	// acted records that the current call has made its one operation.
	step  func(*Proc)
	acted bool
	// resume hands a goroutine task the baton.
	resume   chan struct{}
	done     bool
	panicked error

	// mailboxes holds queued messages per sender rank, and streams, with a
	// fault injector, this task's outgoing streams per destination rank
	// (both indexed by rank; sized once in Run, when the rank count is
	// final).
	mailboxes []msgQueue
	streams   []injStream
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

// Spawn creates a goroutine task on the named cluster. The body runs on a
// goroutine of its own when Run is called. Spawn panics on an unknown
// cluster (a programming error).
func (s *Sim) Spawn(name, cluster string, body func(*Proc)) *Proc {
	p := s.spawn(name, cluster)
	p.body = body
	p.resume = make(chan struct{}, 1)
	if s.idle == nil {
		s.idle = make(chan struct{})
	}
	return p
}

// SpawnStep creates a step task on the named cluster: Run calls step at
// each of the task's wakes, the first at virtual time 0, on whichever
// goroutine holds the baton. Each call makes exactly one of StartSend,
// TryRecv, Compute and Finish; a call that makes none, or a second,
// panics, and a panic in step ends the task with its panic error as a
// body's panic ends a goroutine task. SpawnStep panics on an unknown
// cluster.
func (s *Sim) SpawnStep(name, cluster string, step func(*Proc)) *Proc {
	p := s.spawn(name, cluster)
	p.step = step
	return p
}

// spawn adds a task of either kind, due at virtual time 0.
func (s *Sim) spawn(name, cluster string) *Proc {
	if s.running {
		panic("simnet: Spawn during Run")
	}
	c := s.net.Cluster(cluster)
	if c == nil {
		panic(fmt.Sprintf("simnet: unknown cluster %q", cluster))
	}
	n := len(s.procs)
	var p *Proc
	if n < cap(s.procs) {
		p = s.procs[:n+1][n] // a task of a run before Reset, or nil
	}
	if p == nil {
		p = new(Proc)
	}
	boxes := p.mailboxes
	for i := range boxes {
		clear(boxes[i].items)
		boxes[i] = msgQueue{items: boxes[i].items[:0]}
	}
	*p = Proc{
		sim:       s,
		name:      name,
		cluster:   c,
		seg:       s.segments[c.Segment],
		rank:      n,
		waitingOn: -1,
		mailboxes: boxes,
	}
	s.procs = append(s.procs, p)
	s.schedule(0, evWake, p, nil)
	return p
}

// runStep calls step task p at its wake. A panic in the step function ends
// p with p's own panic error, as live ends a goroutine task, instead of
// unwinding whichever goroutine holds the baton.
func (s *Sim) runStep(p *Proc) {
	if p.done {
		return // a wake left by a step that panicked
	}
	defer p.endIfPanicked()
	p.acted = false
	p.step(p)
	if !p.acted {
		panic("simnet: step returned without sending, receiving, computing or finishing")
	}
}

// endIfPanicked, deferred by runStep, ends a step task whose call panicked.
func (p *Proc) endIfPanicked() {
	if r := recover(); r != nil {
		p.panicked = fmt.Errorf("simnet: task %s panicked: %v", p.name, r)
		p.done, p.waitingOn = true, -1
	}
}

// act marks the one operation of a step task's current call.
func (p *Proc) act() {
	if p.step == nil {
		panic("simnet: a step operation called from a goroutine task")
	}
	if p.acted {
		panic("simnet: a second operation in one step")
	}
	p.acted = true
}

// StartSend starts a step task's send of a message to dst: the sender is
// charged the CPU Send charges, and the message is transmitted at the
// task's next wake, when that charge ends, exactly where Send transmits it.
func (p *Proc) StartSend(dst *Proc, bytes int, payload interface{}) {
	p.act()
	p.startSend(dst, bytes, payload)
}

// TryRecv takes a step task's next message from src and charges the
// receive CPU as Recv does; the task's next wake is when that charge ends.
// With no message from src queued it reports false, and the task wakes when
// one is delivered.
func (p *Proc) TryRecv(src *Proc) (Message, bool) {
	p.act()
	return p.tryRecv(src)
}

// Compute spends ms of a step task's virtual time computing, as Advance
// does; the task's next wake is when the computation ends.
func (p *Proc) Compute(ms float64) {
	p.act()
	if ms < 0 {
		panic("simnet: negative advance")
	}
	p.charge(ms)
}

// Finish ends a step task.
func (p *Proc) Finish() {
	p.act()
	p.done = true
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
	if p.step != nil {
		panic("simnet: a step task cannot block")
	}
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
	// Size every task's per-sender mailbox table (and per-destination
	// stream table) once: Spawn is forbidden during Run, so the rank count
	// is final here and delivery indexes the slice directly with no map
	// hashing and no growth.
	n := len(s.procs)
	var boxes []msgQueue // one block for the tables this Run sizes
	for _, p := range s.procs {
		if len(p.mailboxes) < n {
			if len(boxes) == 0 {
				boxes = make([]msgQueue, n*n)
			}
			grown := boxes[:n:n]
			boxes = boxes[n:]
			copy(grown, p.mailboxes)
			p.mailboxes = grown
		}
		if s.inj != nil && len(p.streams) < n {
			grown := make([]injStream, n)
			copy(grown, p.streams)
			for r := range grown {
				grown[r].dst = s.procs[r]
			}
			p.streams = grown
		}
	}
	for _, p := range s.procs[s.launched:] {
		if p.step != nil {
			continue // runs inline in the event loop
		}
		s.tasks.Add(1)
		go func() {
			defer s.tasks.Done()
			p.live()
		}()
	}
	s.launched = len(s.procs)
	// Run holds the baton until the first goroutine task's wake, and gets
	// it back from whichever goroutine empties the queue.
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
	// Unwind the blocked goroutine tasks in rank order, one at a time, so
	// that each runs its deferred calls with the simulation to itself; then
	// join every task goroutine. A blocked step task has nothing to unwind.
	s.releasing = true
	for _, p := range s.procs {
		if !p.done {
			p.done, p.waitingOn = true, -1
			if p.step == nil {
				p.resume <- struct{}{}
				<-s.idle
			}
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
	p.charge(ms)
	p.park()
}

// charge spends ms of p's CPU and schedules p's wake when it ends.
//
//netpart:hotpath
func (p *Proc) charge(ms float64) {
	p.computeMs += ms
	s := p.sim
	s.schedule(s.now+ms, evWake, p, nil)
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
	p.startSend(dst, bytes, payload)
	p.park()
}

// startSend charges p the CPU of a send to dst and schedules the evSend
// that transmits the message, and wakes p, when the charge ends.
func (p *Proc) startSend(dst *Proc, bytes int, payload interface{}) {
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
	p.computeMs += cpu
	s.schedule(s.now+cpu, evSend, dst, msg)
}

// transmit routes one message: straight through the substrate, or through
// the fault injector's reliable-stream emulation when one is configured.
func (s *Sim) transmit(msg *Message, dst *Proc) {
	if s.inj == nil {
		s.transmitClean(msg, dst)
		return
	}
	st := &msg.From.streams[dst.rank]
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
	st.busy, st.attempt = true, 0
	s.injAttempt(st, st.queue.pop())
}

// injAttempt consults the injector for one transmission attempt of the
// stream head. Injected drops model a lost datagram: the reliability
// layer retries one RTO later, so the drop costs latency, never data.
// Injected delays add transit time; duplicates are suppressed (reliable
// delivery semantics). A message dropped past simMaxRetries is lost and
// stalls its stream, surfacing as a blocked receiver in Run's deadlock
// report — the behavior of a reliable transport over a dead link.
func (s *Sim) injAttempt(st *injStream, msg *Message) {
	fate := s.inj.Packet(msg.From.rank, st.dst.rank, s.now)
	switch {
	case fate.Drop:
		if st.attempt >= simMaxRetries {
			return // lost: stream stalls, Run reports the blocked receiver
		}
		st.attempt++
		s.schedule(s.now+s.injRtoMs, evRetry, st.dst, msg)
	case fate.DelayMs > 0:
		s.schedule(s.now+fate.DelayMs, evDelayed, st.dst, msg)
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
	src := msg.From.seg
	hold := (from.MsgOverheadMs + b*(1/src.spec.BytesPerMs+from.HostPerByteMs)) * s.jitterMul()
	doneSrc := src.acquire(s.now, hold)
	src.messages++
	src.bytes += int64(msg.Bytes)

	if src == dst.seg {
		s.schedule(doneSrc, evDeliver, dst, msg)
		return
	}
	// Store-and-forward through the router, then the destination segment.
	// The router forwards a stream in order: a message leaves no earlier
	// than the previous one from the same sender to the same task, so a
	// short message cannot overtake a long one.
	routed := doneSrc + s.net.Router.PerMessageMs + s.net.Router.PerByteMs*b
	box := &dst.mailboxes[msg.From.rank]
	routed = max(routed, box.hopAt)
	box.hopAt = routed
	s.schedule(routed, evHop, dst, msg)
}

// hop carries msg from the router onto dst's segment.
func (s *Sim) hop(msg *Message, dst *Proc) {
	b := float64(msg.Bytes)
	dseg := dst.seg
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
	for {
		msg, ok := p.tryRecv(src)
		p.park()
		if ok {
			return msg
		}
	}
}

// tryRecv consumes p's next message from src, charging the receive CPU, or
// with none queued marks p as waiting on src; either way p's next wake is
// scheduled (the delivery schedules a waiting task's).
func (p *Proc) tryRecv(src *Proc) (Message, bool) {
	box := &p.mailboxes[src.rank]
	if box.len() == 0 {
		p.waitingOn = src.rank
		return Message{}, false
	}
	s := p.sim
	ptr := box.pop()
	msg := *ptr
	*ptr = Message{}
	if len(s.freeMsgs) < maxFree {
		s.freeMsgs = append(s.freeMsgs, ptr)
	}
	p.received++
	p.charge(RecvCPUMs)
	return msg, true
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
