// Package msgproto is the fixture for the wire-protocol analyzer: codec
// encode/decode symmetry (field order and widths). The lockstep rounds
// such codecs travel in are netpartverify's to check; their fixtures are
// under cmd/netpartverify/testdata/protofix.
package msgproto

import "encoding/binary"

// --- group "stat": symmetric, the well-formed baseline ---

//netpart:wire stat encode
func encodeStat(ms, rows uint64) []byte {
	buf := make([]byte, 16)
	binary.BigEndian.PutUint64(buf[0:8], ms)
	binary.BigEndian.PutUint64(buf[8:16], rows)
	return buf
}

//netpart:wire stat decode
func decodeStat(buf []byte) (uint64, uint64) {
	ms := binary.BigEndian.Uint64(buf[0:8])
	rows := binary.BigEndian.Uint64(buf[8:16])
	return ms, rows
}

// --- group "meas": the decoder reads the two fields in the wrong order ---

//netpart:wire meas encode
func encodeMeas(ms, rows uint64) []byte {
	buf := make([]byte, 16)
	binary.BigEndian.PutUint64(buf[0:8], ms)
	binary.BigEndian.PutUint64(buf[8:16], rows)
	return buf
}

//netpart:wire meas decode
func decodeMeas(buf []byte) (uint64, uint64) {
	rows := binary.BigEndian.Uint64(buf[8:16])
	ms := binary.BigEndian.Uint64(buf[0:8]) // want `wire group "meas"`
	return ms, rows
}

// --- group "pair": the decoder is missing the trailing field ---

//netpart:wire pair encode
func encodePair(a, b uint32, tag byte) []byte {
	buf := make([]byte, 9)
	buf[0] = tag
	binary.BigEndian.PutUint32(buf[1:5], a)
	binary.BigEndian.PutUint32(buf[5:9], b)
	return buf
}

//netpart:wire pair decode
func decodePair(buf []byte) (uint32, uint32, byte) { // want `wire group "pair".*field operations`
	tag := buf[0]
	a := binary.BigEndian.Uint32(buf[1:5])
	return a, 0, tag
}
