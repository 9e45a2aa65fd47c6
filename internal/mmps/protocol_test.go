package mmps

import (
	"bytes"
	"errors"
	"runtime"
	"testing"
	"time"

	"netpart/internal/obs"
)

// udpPair builds a two-endpoint UDP world that records into a fresh
// registry and is closed with the test.
func udpPair(t *testing.T, opts ...Option) ([]*Conn, *obs.Registry) {
	t.Helper()
	m := obs.NewRegistry()
	conns, err := NewUDPWorld(2, append([]Option{WithMetrics(m), WithRecvTimeout(20 * time.Second)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, c := range conns {
			c.Close()
		}
	})
	return conns, m
}

// pattern returns n bytes no two MTU-sized pieces of which are alike.
func pattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i ^ i>>8 ^ i>>16)
	}
	return b
}

// TestWireCounts pins the protocol's cost on a loss-free path: a message of
// k fragments is k data datagrams and ceil(k/ackStride) acks, nothing is
// retransmitted, and no stream ever has more than sendWindow fragments
// outstanding.
func TestWireCounts(t *testing.T) {
	for _, k := range []int{1, 3, 375} {
		conns, m := udpPair(t)
		want := pattern((k-1)*1400 + 1)
		if err := conns[0].Send(1, want); err != nil {
			t.Fatal(err)
		}
		got, err := conns[1].Recv(0)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("k=%d: message corrupted", k)
		}
		if err := conns[0].Flush(); err != nil {
			t.Fatal(err)
		}
		if n := m.Counter(MetricPacketsSent).Value(); n != int64(k) {
			t.Errorf("k=%d: %d data datagrams", k, n)
		}
		if n, want := m.Counter(MetricAcksSent).Value(), int64((k+ackStride-1)/ackStride); n != want {
			t.Errorf("k=%d: %d acks, want %d", k, n, want)
		}
		if n := m.Counter(MetricRetransmits).Value(); n != 0 {
			t.Errorf("k=%d: %d retransmits", k, n)
		}
		if hw := m.Gauge(MetricInflightMax).Value(); hw < 1 || hw > sendWindow {
			t.Errorf("k=%d: in-flight high-water mark %v, want 1..%d", k, hw, sendWindow)
		}
	}
}

// TestWindowFitsDefaultSocketBuffer is the transport half of the live FT
// bugfix: 1 MB written in one burst overflows a default (208 KB) receive
// buffer several times over; clocked out a window at a time it arrives
// without a single retransmission.
func TestWindowFitsDefaultSocketBuffer(t *testing.T) {
	conns, m := udpPair(t)
	want := pattern(1 << 20)
	if err := conns[0].Send(1, want); err != nil {
		t.Fatal(err)
	}
	got, err := conns[1].Recv(0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("message corrupted")
	}
	if n := m.Counter(MetricRetransmits).Value(); n != 0 {
		t.Errorf("%d retransmits", n)
	}
	if hw := m.Gauge(MetricInflightMax).Value(); hw != sendWindow {
		t.Errorf("in-flight high-water mark %v, want %d", hw, sendWindow)
	}
}

// TestRetransmissionIsSelective drops every third data datagram of a
// 400-fragment message: only what was lost may be sent again (go-back-N
// would re-send a window per loss).
func TestRetransmissionIsSelective(t *testing.T) {
	conns, m := udpPair(t, withLossEveryNth(3), withRTO(2*time.Millisecond), withMTU(64))
	want := pattern(400 * 64)
	if err := conns[0].Send(1, want); err != nil {
		t.Fatal(err)
	}
	got, err := conns[1].Recv(0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("message corrupted")
	}
	if err := conns[0].Flush(); err != nil {
		t.Fatal(err)
	}
	dropped := conns[0].dataPkt.Load() / 3
	if re := m.Counter(MetricRetransmits).Value(); re < dropped || re > 2*dropped {
		t.Errorf("%d retransmits for %d drops", re, dropped)
	}
}

// TestLostLastFragmentRecovered loses exactly the last fragment, which no
// later arrival can expose as a gap: the retransmission pass must repair it
// within two RTOs.
func TestLostLastFragmentRecovered(t *testing.T) {
	const rto = 100 * time.Millisecond
	conns, m := udpPair(t, withLossEveryNth(17), withRTO(rto))
	want := pattern(17 * 1400) // data datagram 17 is fragment 16, just past an ack stride
	start := time.Now()
	if err := conns[0].Send(1, want); err != nil {
		t.Fatal(err)
	}
	got, err := conns[1].Recv(0)
	if err != nil {
		t.Fatal(err)
	}
	took := time.Since(start)
	if !bytes.Equal(got, want) {
		t.Fatal("message corrupted")
	}
	if took < rto || took > 2*rto+rto/2 {
		t.Errorf("recovered after %v, want between one and two RTOs of %v", took, rto)
	}
	if re := m.Counter(MetricRetransmits).Value(); re != 1 {
		t.Errorf("%d retransmits, want 1", re)
	}
}

// TestQueuedMessagesKeepOrder queues 100 messages behind one that is still
// in flight; the reader starts each as its predecessor completes.
func TestQueuedMessagesKeepOrder(t *testing.T) {
	conns, m := udpPair(t)
	if err := conns[0].Send(1, pattern(100*1400)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := conns[0].Send(1, []byte{byte(i), 0xA5}); err != nil {
			t.Fatal(err)
		}
	}
	if got, err := conns[1].Recv(0); err != nil || len(got) != 100*1400 {
		t.Fatalf("head message: %d bytes, %v", len(got), err)
	}
	for i := 0; i < 100; i++ {
		got, err := conns[1].Recv(0)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 2 || got[0] != byte(i) {
			t.Fatalf("message %d: got %v", i, got)
		}
	}
	if n := m.Counter(MetricRetransmits).Value(); n != 0 {
		t.Errorf("%d retransmits", n)
	}
}

// TestEndpointFootprint: an endpoint is one reader goroutine and one timer
// (whose callback is a goroutine only while it runs) however many peers it
// has, and the timer is armed only while something is in flight or a
// receiver is blocked.
func TestEndpointFootprint(t *testing.T) {
	const rto = 5 * time.Millisecond
	before := runtime.NumGoroutine()
	conns, err := NewUDPWorld(8, withRTO(rto), WithRecvTimeout(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	if n := runtime.NumGoroutine() - before; n > 2*len(conns) {
		t.Errorf("%d goroutines for %d endpoints", n, len(conns))
	}
	armed := func() (n int) {
		for _, c := range conns {
			c.mu.Lock()
			if c.timerAt != 0 {
				n++
			}
			c.mu.Unlock()
		}
		return n
	}
	if n := armed(); n != 0 {
		t.Errorf("%d idle endpoints armed their timer", n)
	}
	done := make(chan error, 1)
	go func() {
		_, err := conns[1].Recv(0) // blocks first, so it arms and disarms
		done <- err
	}()
	time.Sleep(10 * rto)
	if err := conns[0].Send(1, pattern(5000)); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := conns[0].Flush(); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(time.Second); armed() != 0; time.Sleep(rto) {
		if time.Now().After(deadline) {
			t.Fatalf("%d endpoints still have a timer armed with nothing in flight", armed())
		}
	}
}

// inFlight puts c's stream to dst into the state "message of frags
// fragments of mtu bytes, the first sent of them transmitted, none
// acknowledged", without touching the network.
func inFlight(c *Conn, dst, frags, sent int) *outStream {
	s := &c.out[dst]
	cp := getBuf(frags * c.opts.mtu)
	s.queue = append(s.queue[:0], cp)
	c.unfinished = 1
	s.begin(c.opts.mtu)
	s.next = sent
	return s
}

// TestAckHandlerRobustness feeds the ack handler what a confused or hostile
// peer could send. It must never panic, never credit a fragment that was
// not transmitted, and never do more than a window's work.
func TestAckHandlerRobustness(t *testing.T) {
	conns, _ := udpPair(t)
	c := conns[0]
	const seq = 7
	type state struct{ base, next, unfinished int }
	cases := []struct {
		name        string
		frags, sent int
		ack         packet
		want        state
		acked       uint32
	}{
		{"wraps uint32", 100, 32, packet{seq: seq, fragIdx: 0xFFFFFFF0, fragCount: 0x20}, state{0, 32, 1}, 0},
		{"wraps to zero", 100, 32, packet{seq: seq, fragIdx: 0xFFFFFFFF, fragCount: 1}, state{0, 32, 1}, 0},
		{"exceeds the message", 100, 32, packet{seq: seq, fragIdx: 0, fragCount: 0xFFFFFFFF}, state{32, 64, 1}, 0},
		{"exceeds what was sent", 100, 10, packet{seq: seq, fragIdx: 0, fragCount: 50}, state{10, 42, 1}, 0},
		{"names unsent fragments", 100, 10, packet{seq: seq, fragIdx: 10, fragCount: 5}, state{0, 10, 1}, 0},
		{"straddles the sent edge", 100, 32, packet{seq: seq, fragIdx: 30, fragCount: 50}, state{0, 32, 1}, 0b11 << 30},
		{"stale sequence", 100, 32, packet{seq: seq - 1, fragIdx: 0, fragCount: 10}, state{0, 32, 1}, 0},
		{"future sequence", 100, 32, packet{seq: seq + 1, fragIdx: 0, fragCount: 10}, state{0, 32, 1}, 0},
		{"empty run", 100, 32, packet{seq: seq, fragIdx: 3, fragCount: 0}, state{0, 32, 1}, 0},
		{"selective", 100, 32, packet{seq: seq, fragIdx: 3, fragCount: 2}, state{0, 32, 1}, 0b11 << 3},
		{"slides", 100, 32, packet{seq: seq, fragIdx: 0, fragCount: 4}, state{4, 36, 1}, 0},
		{"completes", 3, 3, packet{seq: seq, fragIdx: 0, fragCount: 3}, state{3, 3, 0}, 0},
	}
	for _, tc := range cases {
		c.mu.Lock()
		s := inFlight(c, 1, tc.frags, tc.sent)
		s.seq = seq
		tc.ack.kind, tc.ack.src, tc.ack.dst = kindAck, 1, 0
		var window [sendWindow]*[]byte
		batch := c.handleAckLocked(tc.ack, window[:0])
		got := state{s.base, s.next, c.unfinished}
		acked := s.acked
		if len(s.queue) > 0 {
			c.finishLocked(1, nil) // leave the stream idle for the next case
		}
		c.mu.Unlock()
		if got != tc.want || acked != tc.acked {
			t.Errorf("%s: state %+v acked %b, want %+v acked %b", tc.name, got, acked, tc.want, tc.acked)
		}
		if want := tc.want.next - tc.sent; tc.want.unfinished == 1 && len(batch) != want {
			t.Errorf("%s: %d fragments released, want %d", tc.name, len(batch), want)
		}
		for _, bp := range batch {
			putBuf(bp)
		}
	}
	// An ack for a stream with nothing in flight.
	c.mu.Lock()
	batch := c.handleAckLocked(packet{kind: kindAck, src: 1, seq: c.out[1].seq, fragCount: 1}, nil)
	c.mu.Unlock()
	if len(batch) != 0 {
		t.Errorf("idle stream released %d fragments", len(batch))
	}
}

// TestInconsistentFragmentsDropped: a fragment that disagrees with its
// message's reassembly state, or with the world's MTU, is neither stored nor
// acknowledged.
func TestInconsistentFragmentsDropped(t *testing.T) {
	conns, _ := udpPair(t, withMTU(4))
	c := conns[1]
	frag := func(idx, count uint32, payload string) packet {
		return packet{kind: kindData, src: 0, dst: 1, fragIdx: idx, fragCount: count, payload: []byte(payload)}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	in := &c.in[0]
	if acks := c.storeLocked(in, frag(0, 3, "abcd"), nil); len(acks) != 0 || in.low != 1 {
		t.Fatalf("first fragment: acks %v, low %d", acks, in.low)
	}
	for name, p := range map[string]packet{
		"other fragment count":  frag(1, 4, "efgh"),
		"index past the count":  frag(3, 3, "efgh"),
		"short inner fragment":  frag(1, 3, "ef"),
		"payload over the MTU":  frag(2, 3, "efghi"),
		"zero fragment count":   frag(0, 0, ""),
		"absurd fragment count": frag(1, 1<<31, "efgh"),
	} {
		if acks := c.storeLocked(in, p, nil); len(acks) != 0 || in.low != 1 || in.fragCount != 3 || in.ackN != 1 {
			t.Errorf("%s: acks %v, low %d, count %d, pending %d", name, acks, in.low, in.fragCount, in.ackN)
		}
	}
	c.storeLocked(in, frag(1, 3, "efgh"), nil)
	if acks := c.storeLocked(in, frag(2, 3, "i"), nil); len(acks) != 1 || acks[0] != (ackRun{0, 0, 3}) {
		t.Fatalf("completing fragment: acks %v", acks)
	}
	if in.inbox.n != 1 || string(in.inbox.pop()) != "abcdefghi" {
		t.Fatalf("delivered %d messages", in.inbox.n)
	}
}

// TestCloseWithQueuedMessages: Close does not wait for queued or in-flight
// messages; it recycles their copies and wakes Flush and Recv with
// ErrClosed.
func TestCloseWithQueuedMessages(t *testing.T) {
	conns, _ := udpPair(t, withRTO(time.Second))
	conns[1].Close() // nothing will ever be acknowledged
	c := conns[0]
	for i := 0; i < 50; i++ {
		if err := c.Send(1, pattern(3000)); err != nil {
			t.Fatal(err)
		}
	}
	errs := make(chan error, 2)
	go func() { errs <- c.Flush() }()
	go func() {
		_, err := c.Recv(1)
		errs <- err
	}()
	time.Sleep(20 * time.Millisecond)
	start := time.Now()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > 500*time.Millisecond {
		t.Errorf("Close took %v with 50 messages queued", took)
	}
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, ErrClosed) {
				t.Errorf("woken with %v, want ErrClosed", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("Close left Flush or Recv blocked")
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.unfinished != 0 || len(c.out[1].queue) != 0 {
		t.Errorf("%d unfinished, %d still queued after Close", c.unfinished, len(c.out[1].queue))
	}
}

// TestLossHookFromEveryTransmitter: withLossEveryNth's counter used to take
// the endpoint lock inside transmit, which the reader and the timer now
// call; with a queue deep enough that all three transmit, nothing may hang.
func TestLossHookFromEveryTransmitter(t *testing.T) {
	conns, _ := udpPair(t, withLossEveryNth(4), withRTO(2*time.Millisecond))
	for i := 0; i < 20; i++ {
		if err := conns[0].Send(1, pattern(40*1400)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		if got, err := conns[1].Recv(0); err != nil || len(got) != 40*1400 {
			t.Fatalf("message %d: %d bytes, %v", i, len(got), err)
		}
	}
	if err := conns[0].Flush(); err != nil {
		t.Fatal(err)
	}
}
