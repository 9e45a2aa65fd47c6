package mmps

import (
	"errors"
	"testing"
	"time"
)

func localPair(t *testing.T, opts ...Option) []*Local {
	t.Helper()
	eps, err := NewLocalWorld(2, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, ep := range eps {
			ep.Close()
		}
	})
	return eps
}

// armed reports the endpoint's timer state under its lock.
func (l *Local) armed() (timerAt int64, waiting int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.timerAt, l.waiting
}

// TestLocalCloseWakesBlockedReceivers: a Recv and a RecvAny blocked on one
// endpoint both return ErrClosed within milliseconds of its Close, well
// before their half-minute timeout.
func TestLocalCloseWakesBlockedReceivers(t *testing.T) {
	eps := localPair(t, WithRecvTimeout(30*time.Second))
	errc := make(chan error, 2)
	go func() {
		_, err := eps[0].Recv(1)
		errc <- err
	}()
	go func() {
		_, _, err := eps[0].RecvAny(0)
		errc <- err
	}()
	for _, w := eps[0].armed(); w < 2; _, w = eps[0].armed() {
		time.Sleep(time.Millisecond)
	}
	closed := time.Now()
	eps[0].Close()
	for i := 0; i < 2; i++ {
		select {
		case err := <-errc:
			if !errors.Is(err, ErrClosed) {
				t.Errorf("blocked receive after Close = %v, want ErrClosed", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("Close did not wake a blocked receiver")
		}
	}
	if d := time.Since(closed); d > 100*time.Millisecond {
		t.Errorf("receivers woke %v after Close", d)
	}
	if at, w := eps[0].armed(); at != 0 || w != 0 {
		t.Errorf("after Close: timer armed for %d with %d waiters", at, w)
	}
}

// TestLocalSendClosedEndpoint: a send from a closed endpoint and a send to
// one both fail with ErrClosed, and neither reaches an inbox.
func TestLocalSendClosedEndpoint(t *testing.T) {
	eps := localPair(t, WithRecvTimeout(20*time.Millisecond))
	eps[1].Close()
	if err := eps[0].Send(1, []byte("x")); !errors.Is(err, ErrClosed) {
		t.Errorf("Send to a closed endpoint = %v, want ErrClosed", err)
	}
	if err := eps[1].Send(0, []byte("x")); !errors.Is(err, ErrClosed) {
		t.Errorf("Send from a closed endpoint = %v, want ErrClosed", err)
	}
	if _, err := eps[0].Recv(1); !errors.Is(err, ErrTimeout) {
		t.Errorf("Recv after the refused send = %v, want ErrTimeout", err)
	}
}

// TestLocalTimeoutDisarmsTimer: a receive that times out leaves the timer
// unarmed and no waiter behind, and the endpoint goes on receiving.
func TestLocalTimeoutDisarmsTimer(t *testing.T) {
	eps := localPair(t, WithRecvTimeout(20*time.Millisecond))
	if _, err := eps[0].Recv(1); !errors.Is(err, ErrTimeout) {
		t.Fatalf("Recv = %v, want ErrTimeout", err)
	}
	if at, w := eps[0].armed(); at != 0 || w != 0 {
		t.Errorf("after the timeout: timer armed for %d with %d waiters", at, w)
	}
	go func() {
		for _, w := eps[0].armed(); w < 1; _, w = eps[0].armed() {
			time.Sleep(time.Millisecond)
		}
		eps[1].Send(0, []byte("late"))
	}()
	if got, err := eps[0].Recv(1); err != nil || string(got) != "late" {
		t.Errorf("Recv after a timeout = %q, %v", got, err)
	}
}

// TestLocalWaitersTimeOutInDeadlineOrder: two receivers blocked on one
// endpoint share its one timer; the one with the nearer deadline times out
// first although it blocked second, and neither returns before its
// deadline.
func TestLocalWaitersTimeOutInDeadlineOrder(t *testing.T) {
	eps := localPair(t)
	type done struct {
		d   time.Duration
		err error
		at  time.Duration
	}
	start := time.Now()
	order := make(chan done, 2)
	wait := func(d time.Duration) {
		_, _, err := eps[0].RecvAny(d)
		order <- done{d, err, time.Since(start)}
	}
	go wait(150 * time.Millisecond)
	for _, w := eps[0].armed(); w < 1; _, w = eps[0].armed() {
		time.Sleep(time.Millisecond)
	}
	go wait(30 * time.Millisecond)
	for i, want := range []time.Duration{30 * time.Millisecond, 150 * time.Millisecond} {
		got := <-order
		if got.d != want || !errors.Is(got.err, ErrTimeout) {
			t.Fatalf("return %d: the %v waiter with %v, want the %v waiter with ErrTimeout", i, got.d, got.err, want)
		}
		if got.at < want {
			t.Errorf("the %v waiter returned after %v", want, got.at)
		}
	}
	if at, w := eps[0].armed(); at != 0 || w != 0 {
		t.Errorf("after both timeouts: timer armed for %d with %d waiters", at, w)
	}
}

// TestInboxHeldTwoDeepAllocatesNothing: a receiver that stays two messages
// behind its sender, with recycled buffers, allocates nothing on either
// side. An inbox that slid its slice window past the head reallocated
// about every other message here.
func TestInboxHeldTwoDeepAllocatesNothing(t *testing.T) {
	eps := localPair(t)
	msg := make([]byte, 512)
	for i := 0; i < 2; i++ {
		if err := eps[0].Send(1, msg); err != nil {
			t.Fatal(err)
		}
	}
	step := func() {
		for i := 0; i < 64; i++ {
			if err := eps[0].Send(1, msg); err != nil {
				t.Fatal(err)
			}
			buf, err := eps[1].Recv(0)
			if err != nil {
				t.Fatal(err)
			}
			eps[1].Recycle(buf)
		}
	}
	step()
	if allocs := testing.AllocsPerRun(50, step); allocs != 0 {
		t.Errorf("%v allocations per 64 messages at depth two, want 0", allocs)
	}
	if n := eps[1].in[0].n; n != 2 {
		t.Errorf("inbox depth %d, want 2", n)
	}
}

// TestFIFOKeepsOrderAcrossGrowth: pushes and pops interleaved so that the
// ring wraps, then grows while wrapped, still hand messages back in order.
func TestFIFOKeepsOrderAcrossGrowth(t *testing.T) {
	var q fifo
	next, want := 0, 0
	push := func(k int) {
		for ; k > 0; k-- {
			q.push([]byte{byte(next)})
			next++
		}
	}
	pop := func(k int) {
		for ; k > 0; k-- {
			if got := q.pop(); got[0] != byte(want) {
				t.Fatalf("popped %d, want %d", got[0], want)
			}
			want++
		}
	}
	push(3)
	pop(2)
	push(5) // wraps the ring of four, then doubles it
	pop(4)
	push(20)
	pop(22)
	if q.n != 0 || len(q.ring) != 32 {
		t.Errorf("%d left in a ring of %d", q.n, len(q.ring))
	}
}
