package mmps

import (
	"encoding/binary"
	"fmt"
)

// Wire format (all integers big-endian, the network byte order MMPS coerces
// to):
//
//	0:4   magic "MMPS"
//	4     version (2)
//	5     kind (0 = data, 1 = ack)
//	6:8   source rank
//	8:10  destination rank
//	10:14 message sequence number (per source→destination stream)
//	14:18 fragment index (ack: first fragment of the acknowledged run)
//	18:22 fragment count of the message (data) / run length (ack)
//	22:26 payload length (data) / 0 (ack)
//	26:   payload
//
// An ack covers the contiguous fragments [index, index+run) of one message;
// a run of 0 acknowledges nothing. Version 1 sent one ack per fragment with
// bytes 18:22 zero. The version byte moved with the change in meaning
// because the two do not interoperate usefully: a version-1 sender reading a
// range ack would credit only its first fragment and retransmit the rest
// after every RTO. Worlds are built in one process by NewUDPWorld, so no
// endpoint ever meets a peer of the other version; a stray version-1
// datagram is dropped by decodePacket like any malformed one.
const (
	headerSize    = 26
	packetVersion = 2

	kindData = 0
	kindAck  = 1
)

var magic = [4]byte{'M', 'M', 'P', 'S'}

// packet is one decoded datagram.
type packet struct {
	kind      byte
	src, dst  int
	seq       uint32
	fragIdx   uint32
	fragCount uint32 // data: fragments in the message; ack: run length
	payload   []byte
}

// encode serializes the packet into a fresh buffer.
func (p *packet) encode() []byte {
	buf := make([]byte, headerSize+len(p.payload))
	p.encodeTo(buf)
	return buf
}

// encodeTo serializes the packet into buf, which must be exactly
// headerSize+len(p.payload) long (the transmit path sizes it from the pool).
func (p *packet) encodeTo(buf []byte) {
	copy(buf[0:4], magic[:])
	buf[4] = packetVersion
	buf[5] = p.kind
	binary.BigEndian.PutUint16(buf[6:8], uint16(p.src))
	binary.BigEndian.PutUint16(buf[8:10], uint16(p.dst))
	binary.BigEndian.PutUint32(buf[10:14], p.seq)
	binary.BigEndian.PutUint32(buf[14:18], p.fragIdx)
	binary.BigEndian.PutUint32(buf[18:22], p.fragCount)
	binary.BigEndian.PutUint32(buf[22:26], uint32(len(p.payload)))
	copy(buf[headerSize:], p.payload)
}

// decodePacket parses a datagram. The returned payload aliases buf. The
// packet comes back by value: the reader decodes one per datagram.
func decodePacket(buf []byte) (packet, error) {
	if len(buf) < headerSize {
		return packet{}, fmt.Errorf("%w: %d bytes", errBadPacket, len(buf))
	}
	if [4]byte(buf[0:4]) != magic {
		return packet{}, errWrongWorld
	}
	if buf[4] != packetVersion {
		return packet{}, fmt.Errorf("%w: version %d", errBadPacket, buf[4])
	}
	p := packet{
		kind:      buf[5],
		src:       int(binary.BigEndian.Uint16(buf[6:8])),
		dst:       int(binary.BigEndian.Uint16(buf[8:10])),
		seq:       binary.BigEndian.Uint32(buf[10:14]),
		fragIdx:   binary.BigEndian.Uint32(buf[14:18]),
		fragCount: binary.BigEndian.Uint32(buf[18:22]),
	}
	if p.kind != kindData && p.kind != kindAck {
		return packet{}, fmt.Errorf("%w: kind %d", errBadPacket, p.kind)
	}
	n := binary.BigEndian.Uint32(buf[22:26])
	if int(n) != len(buf)-headerSize {
		return packet{}, fmt.Errorf("%w: payload length %d of %d", errBadPacket, n, len(buf)-headerSize)
	}
	p.payload = buf[headerSize:]
	return p, nil
}
