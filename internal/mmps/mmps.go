// Package mmps is a reliable heterogeneous message-passing library over UDP
// datagrams, modeled on the MMPS system the paper's implementation uses
// [Grimshaw, Mack, Strayer 1990]. It provides the communication verbs the
// paper's SPMD cycles need — asynchronous sends and blocking, sender-
// addressed receives — with reliability (acknowledgment and retransmission),
// fragmentation/reassembly for messages larger than one datagram, in-order
// per-sender delivery, and network-byte-order coercion helpers for
// exchanging typed data between hosts of different formats.
//
// Two interchangeable transports implement the same interface: a real UDP
// transport (NewUDPWorld) and an in-memory channel transport (NewLocalWorld)
// for deterministic tests of higher layers.
package mmps

import (
	"errors"
	"fmt"
	"time"

	"netpart/internal/faults"
	"netpart/internal/obs"
)

// Transport is the communication endpoint handed to each SPMD task.
// Implementations must allow Send and Recv to be called concurrently from
// the owning task's goroutine; Send is asynchronous (it returns once the
// message is queued for reliable delivery).
type Transport interface {
	// Rank returns this endpoint's task rank.
	Rank() int
	// Size returns the number of endpoints in the world.
	Size() int
	// Send queues data for reliable, in-order delivery to dst. The buffer
	// is copied; the caller may reuse it immediately.
	Send(dst int, data []byte) error
	// Recv blocks until the next message from src arrives, honoring the
	// world's receive timeout.
	Recv(src int) ([]byte, error)
	// RecvAny blocks until a message from any peer arrives, returning the
	// sender's rank with the message. d bounds the wait; d <= 0 means the
	// world's receive timeout. Fault-tolerant runtimes use it to service
	// control traffic from non-neighbors.
	RecvAny(d time.Duration) (int, []byte, error)
	// Close releases the endpoint. Further operations fail.
	Close() error
}

// Common transport errors.
var (
	ErrClosed      = errors.New("mmps: endpoint closed")
	ErrTimeout     = errors.New("mmps: receive timed out")
	ErrBadRank     = errors.New("mmps: rank out of range")
	ErrSendFailed  = errors.New("mmps: send not acknowledged")
	ErrTooLarge    = errors.New("mmps: message exceeds maximum size")
	errBadPacket   = errors.New("mmps: malformed packet")
	errWrongWorld  = errors.New("mmps: packet for a different world")
	errStaleSender = errors.New("mmps: packet from unknown rank")
)

// Option configures a world.
type Option func(*options)

type options struct {
	recvTimeout  time.Duration
	rto          time.Duration
	maxRetries   int
	mtu          int
	maxMessage   int
	lossEveryNth int // test hook: drop every Nth outgoing data packet
	injector     faults.Injector
	metrics      transportMetrics
}

// Metric names WithMetrics records. The world's endpoints share one
// registry, so counts are whole-world totals.
const (
	MetricMsgsSent    = "mmps.msgs_sent"
	MetricMsgsRecv    = "mmps.msgs_received"
	MetricBytesSent   = "mmps.bytes_sent"
	MetricBytesRecv   = "mmps.bytes_received"
	MetricPacketsSent = "mmps.packets_sent" // UDP data packets, first transmissions
	MetricRetransmits = "mmps.retransmits"  // UDP data packets re-sent after an RTO
	MetricAcksSent    = "mmps.acks_sent"    // UDP range acks written
	MetricInflightMax = "mmps.inflight_max" // gauge: most unacknowledged fragments any UDP stream had outstanding
)

// transportMetrics holds pre-resolved instruments; the zero value (all nil
// instruments) records nothing, so un-instrumented worlds pay only nil
// checks.
type transportMetrics struct {
	msgsSent    *obs.Counter
	msgsRecv    *obs.Counter
	bytesSent   *obs.Counter
	bytesRecv   *obs.Counter
	packetsSent *obs.Counter
	retransmits *obs.Counter
	acksSent    *obs.Counter
	inflightMax *obs.Gauge
}

func defaultOptions() options {
	return options{
		recvTimeout: 30 * time.Second,
		rto:         20 * time.Millisecond,
		maxRetries:  200,
		mtu:         1400,
		maxMessage:  64 << 20,
	}
}

// WithRecvTimeout bounds how long Recv blocks before returning ErrTimeout.
func WithRecvTimeout(d time.Duration) Option {
	return func(o *options) { o.recvTimeout = d }
}

// withRTO sets the retransmission timeout.
func withRTO(d time.Duration) Option {
	return func(o *options) { o.rto = d }
}

// withMaxRetries bounds retransmissions per fragment before Send reports
// failure.
func withMaxRetries(n int) Option {
	return func(o *options) { o.maxRetries = n }
}

// withMTU sets the maximum datagram payload; larger messages fragment.
func withMTU(n int) Option {
	return func(o *options) { o.mtu = n }
}

// withLossEveryNth makes the UDP transport deliberately drop every nth
// outgoing data packet (n ≥ 2), exercising the retransmission path. Test
// hook; zero disables.
func withLossEveryNth(n int) Option {
	return func(o *options) { o.lossEveryNth = n }
}

// WithInjector routes every packet through a fault injector. Faults are
// applied below the reliability layer: dropped packets are retransmitted,
// delayed packets arrive late, duplicated packets are deduplicated — so
// application results are unchanged, only timing and retransmission
// behavior shift. Nil disables.
func WithInjector(inj faults.Injector) Option {
	return func(o *options) { o.injector = inj }
}

// WithMetrics records transport activity (the Metric* names) into r: message
// and byte counts on both transports, plus packet, retransmission and ack
// counts and the in-flight high-water mark on the UDP transport. Nil r
// disables.
func WithMetrics(r *obs.Registry) Option {
	return func(o *options) {
		o.metrics = transportMetrics{
			msgsSent:    r.Counter(MetricMsgsSent),
			msgsRecv:    r.Counter(MetricMsgsRecv),
			bytesSent:   r.Counter(MetricBytesSent),
			bytesRecv:   r.Counter(MetricBytesRecv),
			packetsSent: r.Counter(MetricPacketsSent),
			retransmits: r.Counter(MetricRetransmits),
			acksSent:    r.Counter(MetricAcksSent),
			inflightMax: r.Gauge(MetricInflightMax),
		}
	}
}

// recvFrom is Recv on either transport: a receive from src alone, whose
// timeout error names it.
func recvFrom(r interface {
	recv(lo, hi int, d time.Duration) (int, []byte, error)
}, src, size int, d time.Duration) ([]byte, error) {
	if err := rankCheck(src, size); err != nil {
		return nil, err
	}
	_, msg, err := r.recv(src, src+1, d)
	if err == ErrTimeout {
		err = fmt.Errorf("%w: from rank %d", ErrTimeout, src)
	}
	return msg, err
}

// rankCheck validates a peer rank.
func rankCheck(rank, size int) error {
	if rank < 0 || rank >= size {
		return fmt.Errorf("%w: %d of %d", ErrBadRank, rank, size)
	}
	return nil
}
