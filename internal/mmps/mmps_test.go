package mmps

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// worlds returns both transport implementations under a common constructor
// so every behavioral test runs against each.
func worlds(t *testing.T, n int, opts ...Option) map[string][]Transport {
	t.Helper()
	out := make(map[string][]Transport)
	locals, err := NewLocalWorld(n, opts...)
	if err != nil {
		t.Fatal(err)
	}
	ls := make([]Transport, n)
	for i, l := range locals {
		ls[i] = l
	}
	out["local"] = ls
	conns, err := NewUDPWorld(n, opts...)
	if err != nil {
		t.Fatal(err)
	}
	us := make([]Transport, n)
	for i, c := range conns {
		us[i] = c
	}
	out["udp"] = us
	return out
}

func closeAll(eps []Transport) {
	for _, ep := range eps {
		ep.Close()
	}
}

func TestSendRecvRoundTrip(t *testing.T) {
	for name, eps := range worlds(t, 2, WithRecvTimeout(5*time.Second)) {
		t.Run(name, func(t *testing.T) {
			defer closeAll(eps)
			want := []byte("hello, network partitioning")
			if err := eps[0].Send(1, want); err != nil {
				t.Fatal(err)
			}
			got, err := eps[1].Recv(0)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("got %q, want %q", got, want)
			}
		})
	}
}

func TestPerSenderOrdering(t *testing.T) {
	for name, eps := range worlds(t, 2, WithRecvTimeout(5*time.Second)) {
		t.Run(name, func(t *testing.T) {
			defer closeAll(eps)
			const msgs = 50
			for i := 0; i < msgs; i++ {
				if err := eps[0].Send(1, []byte{byte(i)}); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < msgs; i++ {
				got, err := eps[1].Recv(0)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != 1 || got[0] != byte(i) {
					t.Fatalf("message %d: got %v", i, got)
				}
			}
		})
	}
}

func TestSenderIdentityPreserved(t *testing.T) {
	for name, eps := range worlds(t, 3, WithRecvTimeout(5*time.Second)) {
		t.Run(name, func(t *testing.T) {
			defer closeAll(eps)
			if err := eps[0].Send(2, []byte("from-0")); err != nil {
				t.Fatal(err)
			}
			if err := eps[1].Send(2, []byte("from-1")); err != nil {
				t.Fatal(err)
			}
			got1, err := eps[2].Recv(1)
			if err != nil {
				t.Fatal(err)
			}
			got0, err := eps[2].Recv(0)
			if err != nil {
				t.Fatal(err)
			}
			if string(got0) != "from-0" || string(got1) != "from-1" {
				t.Errorf("got %q / %q", got0, got1)
			}
		})
	}
}

func TestLargeMessageFragmentsAndReassembles(t *testing.T) {
	for name, eps := range worlds(t, 2, WithRecvTimeout(10*time.Second), withMTU(512)) {
		t.Run(name, func(t *testing.T) {
			defer closeAll(eps)
			want := make([]byte, 100_000) // ~196 fragments at MTU 512
			for i := range want {
				want[i] = byte(i * 31)
			}
			if err := eps[0].Send(1, want); err != nil {
				t.Fatal(err)
			}
			got, err := eps[1].Recv(0)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Error("large message corrupted in flight")
			}
		})
	}
}

func TestEmptyMessage(t *testing.T) {
	for name, eps := range worlds(t, 2, WithRecvTimeout(5*time.Second)) {
		t.Run(name, func(t *testing.T) {
			defer closeAll(eps)
			if err := eps[0].Send(1, nil); err != nil {
				t.Fatal(err)
			}
			got, err := eps[1].Recv(0)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != 0 {
				t.Errorf("got %v, want empty", got)
			}
		})
	}
}

func TestRecvTimeout(t *testing.T) {
	for name, eps := range worlds(t, 2, WithRecvTimeout(50*time.Millisecond)) {
		t.Run(name, func(t *testing.T) {
			defer closeAll(eps)
			start := time.Now()
			_, err := eps[0].Recv(1)
			if !errors.Is(err, ErrTimeout) {
				t.Fatalf("Recv = %v, want ErrTimeout", err)
			}
			if time.Since(start) > 5*time.Second {
				t.Error("timeout took far too long")
			}
		})
	}
}

func TestRankValidation(t *testing.T) {
	for name, eps := range worlds(t, 2, WithRecvTimeout(time.Second)) {
		t.Run(name, func(t *testing.T) {
			defer closeAll(eps)
			if err := eps[0].Send(7, []byte("x")); !errors.Is(err, ErrBadRank) {
				t.Errorf("Send to bad rank = %v", err)
			}
			if _, err := eps[0].Recv(-1); !errors.Is(err, ErrBadRank) {
				t.Errorf("Recv from bad rank = %v", err)
			}
		})
	}
}

func TestCloseUnblocksReceivers(t *testing.T) {
	for name, eps := range worlds(t, 2, WithRecvTimeout(30*time.Second)) {
		t.Run(name, func(t *testing.T) {
			defer closeAll(eps)
			errc := make(chan error, 1)
			go func() {
				_, err := eps[0].Recv(1)
				errc <- err
			}()
			time.Sleep(20 * time.Millisecond)
			eps[0].Close()
			select {
			case err := <-errc:
				if !errors.Is(err, ErrClosed) {
					t.Errorf("Recv after close = %v, want ErrClosed", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Close did not unblock Recv")
			}
		})
	}
}

func TestSendAfterCloseFails(t *testing.T) {
	for name, eps := range worlds(t, 2, WithRecvTimeout(time.Second)) {
		t.Run(name, func(t *testing.T) {
			defer closeAll(eps)
			eps[0].Close()
			if err := eps[0].Send(1, []byte("x")); !errors.Is(err, ErrClosed) {
				t.Errorf("Send after close = %v, want ErrClosed", err)
			}
		})
	}
}

func TestRetransmissionRecoversFromLoss(t *testing.T) {
	// Drop every 3rd data packet: reliability must still deliver everything
	// in order.
	conns, err := NewUDPWorld(2,
		WithRecvTimeout(20*time.Second),
		withRTO(5*time.Millisecond),
		withLossEveryNth(3),
		withMTU(256),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	const msgs = 20
	go func() {
		for i := 0; i < msgs; i++ {
			payload := bytes.Repeat([]byte{byte(i)}, 700) // 3 fragments each
			conns[0].Send(1, payload)
		}
	}()
	for i := 0; i < msgs; i++ {
		got, err := conns[1].Recv(0)
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		if len(got) != 700 || got[0] != byte(i) || got[699] != byte(i) {
			t.Fatalf("message %d corrupted: len=%d first=%d", i, len(got), got[0])
		}
	}
}

func TestFlushWaitsForAcks(t *testing.T) {
	conns, err := NewUDPWorld(2, WithRecvTimeout(10*time.Second), withRTO(5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	for i := 0; i < 10; i++ {
		if err := conns[0].Send(1, bytes.Repeat([]byte{1}, 5000)); err != nil {
			t.Fatal(err)
		}
	}
	if err := conns[0].Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	for i := 0; i < 10; i++ {
		if _, err := conns[1].Recv(0); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSendFailureSurfacesWhenPeerGone(t *testing.T) {
	conns, err := NewUDPWorld(2,
		WithRecvTimeout(time.Second),
		withRTO(2*time.Millisecond),
		withMaxRetries(3),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer conns[0].Close()
	conns[1].Close() // peer vanishes; acks will never come
	if err := conns[0].Send(1, []byte("into the void")); err != nil {
		t.Fatalf("async send should enqueue: %v", err)
	}
	if err := conns[0].Flush(); !errors.Is(err, ErrSendFailed) {
		t.Errorf("Flush = %v, want ErrSendFailed", err)
	}
}

func TestConcurrentAllToAll(t *testing.T) {
	const n = 4
	const msgsPerPair = 10
	for name, eps := range worlds(t, n, WithRecvTimeout(20*time.Second)) {
		t.Run(name, func(t *testing.T) {
			defer closeAll(eps)
			var wg sync.WaitGroup
			errc := make(chan error, n)
			for r := 0; r < n; r++ {
				r := r
				wg.Add(1)
				go func() {
					defer wg.Done()
					for dst := 0; dst < n; dst++ {
						if dst == r {
							continue
						}
						for i := 0; i < msgsPerPair; i++ {
							msg := fmt.Sprintf("%d->%d #%d", r, dst, i)
							if err := eps[r].Send(dst, []byte(msg)); err != nil {
								errc <- err
								return
							}
						}
					}
					for src := 0; src < n; src++ {
						if src == r {
							continue
						}
						for i := 0; i < msgsPerPair; i++ {
							got, err := eps[r].Recv(src)
							if err != nil {
								errc <- err
								return
							}
							want := fmt.Sprintf("%d->%d #%d", src, r, i)
							if string(got) != want {
								errc <- fmt.Errorf("got %q, want %q", got, want)
								return
							}
						}
					}
				}()
			}
			wg.Wait()
			close(errc)
			for err := range errc {
				t.Error(err)
			}
		})
	}
}

func TestMaxMessageSize(t *testing.T) {
	conns, err := NewUDPWorld(2, WithRecvTimeout(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	huge := make([]byte, 65<<20)
	if err := conns[0].Send(1, huge); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversized send = %v, want ErrTooLarge", err)
	}
}

func TestPacketRoundTrip(t *testing.T) {
	p := &packet{
		kind: kindData, src: 3, dst: 9, seq: 42,
		fragIdx: 7, fragCount: 12, payload: []byte("payload bytes"),
	}
	got, err := decodePacket(p.encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.kind != p.kind || got.src != p.src || got.dst != p.dst ||
		got.seq != p.seq || got.fragIdx != p.fragIdx || got.fragCount != p.fragCount ||
		!bytes.Equal(got.payload, p.payload) {
		t.Errorf("round trip: %+v vs %+v", got, p)
	}
}

func TestDecodePacketRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("short"),
		bytes.Repeat([]byte{0}, headerSize), // bad magic
		append(magic[:], bytes.Repeat([]byte{9}, 40)...), // bad version
	}
	for i, in := range cases {
		if _, err := decodePacket(in); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
	// Truthful header with a lying payload length.
	p := &packet{kind: kindData, src: 0, dst: 1, fragCount: 1, payload: []byte("xx")}
	enc := p.encode()
	enc[25] = 99 // payload length corrupted
	if _, err := decodePacket(enc); err == nil {
		t.Error("lying payload length accepted")
	}
}

// Property: packet encoding round-trips arbitrary field values.
func TestPacketRoundTripProperty(t *testing.T) {
	f := func(kindRaw bool, src, dst uint16, seq, fragIdx, fragCount uint32, payload []byte) bool {
		kind := byte(kindData)
		if kindRaw {
			kind = kindAck
		}
		p := &packet{
			kind: kind, src: int(src), dst: int(dst), seq: seq,
			fragIdx: fragIdx, fragCount: fragCount, payload: payload,
		}
		got, err := decodePacket(p.encode())
		if err != nil {
			return false
		}
		return got.kind == p.kind && got.src == p.src && got.dst == p.dst &&
			got.seq == p.seq && got.fragIdx == p.fragIdx &&
			got.fragCount == p.fragCount && bytes.Equal(got.payload, p.payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCoerceRoundTrips(t *testing.T) {
	f64 := []float64{0, 1.5, -2.25, 1e300, -1e-300}
	got64, err := DecodeFloat64s(EncodeFloat64s(f64))
	if err != nil {
		t.Fatal(err)
	}
	for i := range f64 {
		if got64[i] != f64[i] {
			t.Errorf("float64[%d]: %v != %v", i, got64[i], f64[i])
		}
	}
}

// TestCoerceRejectsMisalignedBuffers: a payload that is not a whole number
// of float64s is refused on either coercion path, whatever its length.
func TestCoerceRejectsMisalignedBuffers(t *testing.T) {
	for _, avx2 := range coercionPaths() {
		withCoercion(avx2, func() {
			for size := 1; size <= 8*67+7; size++ {
				if size%8 == 0 {
					continue
				}
				if got, err := DecodeFloat64s(make([]byte, size)); err == nil || got != nil {
					t.Fatalf("avx2=%v: misaligned %d-byte float64 buffer decoded to %d values, err %v", avx2, size, len(got), err)
				}
			}
		})
	}
}

// Property: float64 coercion round-trips arbitrary values (including the
// bit patterns of NaNs).
func TestCoerceFloat64Property(t *testing.T) {
	f := func(vals []float64) bool {
		got, err := DecodeFloat64s(EncodeFloat64s(vals))
		if err != nil || len(got) != len(vals) {
			return false
		}
		for i := range vals {
			// Compare bit patterns so NaN round-trips count as equal.
			if EncodeFloat64s(vals[i : i+1])[0] != EncodeFloat64s(got[i : i+1])[0] {
				return false
			}
			if vals[i] == vals[i] && got[i] != vals[i] { // non-NaN exact
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestWorldSizeValidation(t *testing.T) {
	if _, err := NewLocalWorld(0); err == nil {
		t.Error("zero-size local world accepted")
	}
	if _, err := NewUDPWorld(0); err == nil {
		t.Error("zero-size udp world accepted")
	}
}
