package mmps

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"netpart/internal/faults"
)

// TestRecvTimeoutResetsStaleReassembly is the regression test for the
// partial-reassembly bug: a message abandoned mid-flight (its second
// fragment lost with retries exhausted) used to wedge the stream, so a
// retried Recv would wait forever on the gap — and if the sender later
// reused the buffer, stale fragments could splice with fresh ones. After
// the timeout the receiver must discard the stale partial and deliver the
// next complete message.
func TestRecvTimeoutResetsStaleReassembly(t *testing.T) {
	conns, err := NewUDPWorld(2,
		WithRecvTimeout(200*time.Millisecond),
		withRTO(10*time.Millisecond),
		withMaxRetries(0), // one shot per fragment: a lost fragment is abandoned
		withMTU(8),
		withLossEveryNth(2), // drops data packets 2, 4, ...
	)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	a, b := conns[0], conns[1]

	// Message 1 fragments into packets 1 and 2; packet 2 is dropped and
	// never retransmitted, so message 1 is abandoned.
	msg1 := bytes.Repeat([]byte{0xAA}, 16)
	if err := a.Send(1, msg1); err != nil {
		t.Fatal(err)
	}
	if err := a.Flush(); !errors.Is(err, ErrSendFailed) {
		t.Fatalf("Flush after abandoned message = %v, want ErrSendFailed", err)
	}
	// Message 2 is a single fragment (packet 3) and arrives intact.
	msg2 := []byte("freshmsg")
	if err := a.Send(1, msg2); err != nil {
		t.Fatal(err)
	}
	if err := a.Flush(); err != nil {
		t.Fatalf("Flush after message 2: %v", err)
	}

	// The receive must not return msg1's stale fragments in any form; once
	// the stream head times out, the stale state is discarded and msg2 is
	// delivered.
	got, err := b.Recv(0)
	if err != nil {
		t.Fatalf("Recv after reassembly reset: %v", err)
	}
	if !bytes.Equal(got, msg2) {
		t.Fatalf("Recv = %q, want %q (stale fragments spliced?)", got, msg2)
	}
	// The stream is clean afterwards: nothing further is pending.
	if _, err := b.Recv(0); !errors.Is(err, ErrTimeout) {
		t.Fatalf("Recv on drained stream = %v, want ErrTimeout", err)
	}
}

// TestSendErrorScopedToPeer verifies a delivery failure to one dead peer
// does not poison communication with the survivors (the old behavior kept
// one sticky world-level error).
func TestSendErrorScopedToPeer(t *testing.T) {
	conns, err := NewUDPWorld(3,
		WithRecvTimeout(2*time.Second),
		withRTO(5*time.Millisecond),
		withMaxRetries(3),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	conns[2].Close() // rank 2 dies

	if err := conns[0].Send(2, []byte("into the void")); err != nil {
		t.Fatalf("Send enqueue: %v", err)
	}
	if err := conns[0].Flush(); !errors.Is(err, ErrSendFailed) {
		t.Fatalf("Flush = %v, want ErrSendFailed", err)
	}
	// The error was consumed; rank 0 and rank 1 still talk both ways.
	if err := conns[0].Send(1, []byte("hello")); err != nil {
		t.Fatalf("Send to survivor after peer death: %v", err)
	}
	got, err := conns[1].Recv(0)
	if err != nil || string(got) != "hello" {
		t.Fatalf("Recv from survivor = %q, %v", got, err)
	}
	if err := conns[0].Flush(); err != nil {
		t.Fatalf("second Flush = %v, want nil (error is one-shot)", err)
	}
}

// TestRecvAny exercises the any-source receive on both transports.
func TestRecvAny(t *testing.T) {
	build := map[string]func(t *testing.T) []Transport{
		"local": func(t *testing.T) []Transport {
			eps, err := NewLocalWorld(3, WithRecvTimeout(time.Second))
			if err != nil {
				t.Fatal(err)
			}
			return []Transport{eps[0], eps[1], eps[2]}
		},
		"udp": func(t *testing.T) []Transport {
			eps, err := NewUDPWorld(3, WithRecvTimeout(time.Second))
			if err != nil {
				t.Fatal(err)
			}
			return []Transport{eps[0], eps[1], eps[2]}
		},
	}
	for name, mk := range build {
		t.Run(name, func(t *testing.T) {
			world := mk(t)
			defer func() {
				for _, ep := range world {
					ep.Close()
				}
			}()
			if err := world[1].Send(0, []byte("from-1")); err != nil {
				t.Fatal(err)
			}
			if err := world[2].Send(0, []byte("from-2")); err != nil {
				t.Fatal(err)
			}
			seen := map[int]string{}
			for i := 0; i < 2; i++ {
				src, msg, err := world[0].RecvAny(time.Second)
				if err != nil {
					t.Fatal(err)
				}
				seen[src] = string(msg)
			}
			if seen[1] != "from-1" || seen[2] != "from-2" {
				t.Fatalf("RecvAny saw %v", seen)
			}
			if _, _, err := world[0].RecvAny(20 * time.Millisecond); !errors.Is(err, ErrTimeout) {
				t.Fatalf("RecvAny on empty inbox = %v, want ErrTimeout", err)
			}
		})
	}
}

// TestInjectorDropsAreMasked checks that probabilistic packet drops below
// the reliability layer never change delivered content or order, on both
// transports.
func TestInjectorDropsAreMasked(t *testing.T) {
	sched := faults.MustParse("drop:0.3;dup:0.2")
	for name, mk := range map[string]func(inj faults.Injector) ([]Transport, error){
		"local": func(inj faults.Injector) ([]Transport, error) {
			eps, err := NewLocalWorld(2, WithRecvTimeout(5*time.Second), withRTO(2*time.Millisecond), WithInjector(inj))
			if err != nil {
				return nil, err
			}
			return []Transport{eps[0], eps[1]}, nil
		},
		"udp": func(inj faults.Injector) ([]Transport, error) {
			eps, err := NewUDPWorld(2, WithRecvTimeout(5*time.Second), withRTO(2*time.Millisecond), WithInjector(inj))
			if err != nil {
				return nil, err
			}
			return []Transport{eps[0], eps[1]}, nil
		},
	} {
		t.Run(name, func(t *testing.T) {
			world, err := mk(faults.NewEngine(sched, 42, nil))
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				for _, ep := range world {
					ep.Close()
				}
			}()
			const msgs = 40
			go func() {
				for i := 0; i < msgs; i++ {
					world[0].Send(1, []byte{byte(i), byte(i ^ 0x5A)})
				}
			}()
			for i := 0; i < msgs; i++ {
				got, err := world[1].Recv(0)
				if err != nil {
					t.Fatalf("message %d: %v", i, err)
				}
				if len(got) != 2 || got[0] != byte(i) || got[1] != byte(i^0x5A) {
					t.Fatalf("message %d corrupted or reordered: %v", i, got)
				}
			}
		})
	}
}

// TestLocalInjectorPreservesOrderUnderDelay delays most packets and checks
// per-sender ordering survives.
func TestLocalInjectorPreservesOrderUnderDelay(t *testing.T) {
	inj := faults.NewEngine(faults.MustParse("delay:0.8,4"), 7, nil)
	eps, err := NewLocalWorld(2, WithRecvTimeout(5*time.Second), WithInjector(inj))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, ep := range eps {
			ep.Close()
		}
	}()
	const msgs = 30
	for i := 0; i < msgs; i++ {
		if err := eps[0].Send(1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < msgs; i++ {
		got, err := eps[1].Recv(0)
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		if got[0] != byte(i) {
			t.Fatalf("message %d out of order: got %d", i, got[0])
		}
	}
}

// TestPartitionHeals drives a link partition window: messages across the
// cut stall during the window and flow after it heals.
func TestPartitionHeals(t *testing.T) {
	inj := faults.NewEngine(faults.MustParse("part:1@0-120"), 1, nil)
	eps, err := NewLocalWorld(2, WithRecvTimeout(5*time.Second), withRTO(5*time.Millisecond), WithInjector(inj))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, ep := range eps {
			ep.Close()
		}
	}()
	if err := eps[0].Send(1, []byte("cross-cut")); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	got, err := eps[1].Recv(0)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "cross-cut" {
		t.Fatalf("got %q", got)
	}
	if waited := time.Since(start); waited < 80*time.Millisecond {
		t.Fatalf("message crossed an open partition after %v", waited)
	}
}

// TestPooledBuffersSurviveDupDelay is the aliasing guard for the pooled
// packet buffers (pool.go): duplicated and delayed packet fates keep
// encoded datagrams alive after transmit returns, and a recycled buffer
// overwritten by a later packet would corrupt them mid-flight. Large
// multi-fragment messages with distinctive per-message contents stream in
// both directions over a small MTU while the pool churns; every delivered
// payload must arrive intact, in order, on both ranks.
func TestPooledBuffersSurviveDupDelay(t *testing.T) {
	sched := faults.MustParse("dup:0.4;delay:0.4,3")
	inj := faults.NewEngine(sched, 42, nil)
	eps, err := NewUDPWorld(2,
		WithRecvTimeout(5*time.Second), withRTO(3*time.Millisecond),
		withMTU(64), WithInjector(inj))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, ep := range eps {
			ep.Close()
		}
	}()

	const msgs = 30
	const msgLen = 300 // 5 fragments at MTU 64
	payload := func(sender, i int) []byte {
		b := make([]byte, msgLen)
		for j := range b {
			b[j] = byte(sender*131 + i*7 + j)
		}
		return b
	}
	errc := make(chan error, 2)
	for _, sender := range []int{0, 1} {
		sender := sender
		go func() {
			for i := 0; i < msgs; i++ {
				if err := eps[sender].Send(1-sender, payload(sender, i)); err != nil {
					errc <- err
					return
				}
			}
			errc <- nil
		}()
	}
	for _, receiver := range []int{0, 1} {
		for i := 0; i < msgs; i++ {
			got, err := eps[receiver].Recv(1 - receiver)
			if err != nil {
				t.Fatalf("rank %d message %d: %v", receiver, i, err)
			}
			want := payload(1-receiver, i)
			if !bytes.Equal(got, want) {
				t.Fatalf("rank %d message %d corrupted: got %x... want %x...",
					receiver, i, got[:8], want[:8])
			}
		}
	}
	for i := 0; i < 2; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}
