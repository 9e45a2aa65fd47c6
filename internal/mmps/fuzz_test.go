package mmps

import (
	"bytes"
	"testing"
)

// FuzzDecodePacket hardens the wire decoder: arbitrary datagrams must
// never panic, and valid packets must round-trip.
func FuzzDecodePacket(f *testing.F) {
	good := &packet{kind: kindData, src: 1, dst: 2, seq: 3, fragIdx: 0, fragCount: 1, payload: []byte("hi")}
	f.Add(good.encode())
	// Range acks: an ordinary run, an empty one, one whose end wraps uint32
	// and one that claims the whole index space.
	for _, run := range [][2]uint32{{0, 3}, {16, 0}, {0xFFFFFFF0, 0x20}, {0, 0xFFFFFFFF}} {
		ack := &packet{kind: kindAck, src: 2, dst: 1, seq: 3, fragIdx: run[0], fragCount: run[1]}
		f.Add(ack.encode())
	}
	f.Add([]byte{})
	f.Add([]byte("MMPS garbage that is long enough to look like a header....."))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := decodePacket(data)
		if err != nil {
			return
		}
		// Whatever decoded must re-encode to the identical bytes.
		if !bytes.Equal(p.encode(), data) {
			t.Fatalf("decode/encode not idempotent for %x", data)
		}
	})
}
