package mmps

import (
	"bytes"
	"testing"
	"time"

	"netpart/internal/obs"
)

func TestLocalWorldMetrics(t *testing.T) {
	m := obs.NewRegistry()
	world, err := NewLocalWorld(2, WithMetrics(m))
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("abcdefgh")
	if err := world[0].Send(1, payload); err != nil {
		t.Fatal(err)
	}
	got, err := world[1].Recv(0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("recv = %q", got)
	}
	if n := m.Counter(MetricMsgsSent).Value(); n != 1 {
		t.Errorf("msgs_sent = %d", n)
	}
	if n := m.Counter(MetricBytesRecv).Value(); n != int64(len(payload)) {
		t.Errorf("bytes_received = %d", n)
	}
}

func TestUDPWorldMetricsCountRetransmits(t *testing.T) {
	m := obs.NewRegistry()
	world, err := NewUDPWorld(2,
		WithMetrics(m),
		withLossEveryNth(2), // drop every other data packet
		withRTO(5*time.Millisecond),
		WithRecvTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, c := range world {
			c.Close()
		}
	}()
	for i := 0; i < 4; i++ {
		if err := world[0].Send(1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		if _, err := world[1].Recv(0); err != nil {
			t.Fatal(err)
		}
	}
	if n := m.Counter(MetricMsgsRecv).Value(); n != 4 {
		t.Errorf("msgs_received = %d", n)
	}
	if n := m.Counter(MetricPacketsSent).Value(); n != 4 {
		t.Errorf("packets_sent = %d", n)
	}
	// Half the first transmissions were dropped, so retransmissions must
	// have occurred for delivery to succeed.
	if n := m.Counter(MetricRetransmits).Value(); n == 0 {
		t.Error("expected retransmissions under 50% loss")
	}
}
