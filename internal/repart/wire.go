package repart

import (
	"encoding/binary"
	"fmt"
	"math"

	"netpart/internal/core"
	"netpart/internal/mmps"
)

// Wire codec for the repartitioning protocol, shared by every runtime that
// moves rows: the live adaptive rebalancer sends these frames bare over
// mmps transports, and the fault-tolerant runtime wraps the same row-batch
// payload in its epoch/cycle frame header (ftRows/ftCkpt). One codec, one
// byte order (big-endian, the mmps coercion format), one set of
// validation rules.

// EncodeMeasurement frames one rank's (measured window ms, current row
// count) report for the rank-0 gather.
func EncodeMeasurement(ms float64, rows int) []byte {
	buf := make([]byte, 16)
	binary.BigEndian.PutUint64(buf, math.Float64bits(ms))
	binary.BigEndian.PutUint64(buf[8:], uint64(rows))
	return buf
}

// DecodeMeasurement parses an EncodeMeasurement frame.
func DecodeMeasurement(buf []byte) (float64, int, error) {
	if len(buf) != 16 {
		return 0, 0, fmt.Errorf("repart: measurement of %d bytes", len(buf))
	}
	return math.Float64frombits(binary.BigEndian.Uint64(buf)),
		int(binary.BigEndian.Uint64(buf[8:])), nil
}

// EncodeVectorPair frames the rank-0 decision broadcast: the (old, new)
// partition vectors every rank needs to derive the migration spans.
func EncodeVectorPair(old, new core.Vector) []byte {
	buf := make([]byte, 8+16*len(old))
	binary.BigEndian.PutUint64(buf, uint64(len(old)))
	for i := range old {
		binary.BigEndian.PutUint64(buf[8+16*i:], uint64(old[i]))
		binary.BigEndian.PutUint64(buf[16+16*i:], uint64(new[i]))
	}
	return buf
}

// DecodeVectorPair parses an EncodeVectorPair frame.
func DecodeVectorPair(buf []byte) (core.Vector, core.Vector, error) {
	if len(buf) < 8 {
		return nil, nil, fmt.Errorf("repart: short vector pair")
	}
	// Bound the declared rank count by the frame before multiplying: a
	// hostile count would overflow 8+16*n.
	n := binary.BigEndian.Uint64(buf)
	if n > uint64(len(buf)-8)/16 || len(buf) != 8+16*int(n) {
		return nil, nil, fmt.Errorf("repart: vector pair of %d bytes for %d ranks", len(buf), n)
	}
	old := make(core.Vector, n)
	new := make(core.Vector, n)
	for i := range old {
		old[i] = int(binary.BigEndian.Uint64(buf[8+16*i:]))
		new[i] = int(binary.BigEndian.Uint64(buf[16+16*i:]))
	}
	return old, new, nil
}

// EncodeRows frames a contiguous row batch: the first global row index,
// the row count, then the rows themselves.
func EncodeRows(first int, rows [][]float64) []byte {
	width := 0
	if len(rows) > 0 {
		width = len(rows[0])
	}
	buf := make([]byte, 16, 16+8*len(rows)*width)
	binary.BigEndian.PutUint64(buf, uint64(first))
	binary.BigEndian.PutUint64(buf[8:], uint64(len(rows)))
	for _, row := range rows {
		buf = mmps.AppendFloat64s(buf, row)
	}
	return buf
}

// DecodeRows parses an EncodeRows frame whose rows are width floats wide.
func DecodeRows(buf []byte, width int) (first int, rows [][]float64, err error) {
	if len(buf) < 16 {
		return 0, nil, fmt.Errorf("repart: short row batch")
	}
	first = int(binary.BigEndian.Uint64(buf))
	count := binary.BigEndian.Uint64(buf[8:])
	body := buf[16:]
	// Every row holds at least one float, so the body bounds the count
	// before 8*count*width is formed.
	if count > 0 && (width < 1 || count > uint64(len(body)/8/width)) || len(body) != 8*int(count)*width {
		return 0, nil, fmt.Errorf("repart: row batch of %d bytes for %d rows of %d", len(body), count, width)
	}
	for i := range int(count) {
		row, err := mmps.DecodeFloat64s(body[8*i*width : 8*(i+1)*width])
		if err != nil {
			return 0, nil, err
		}
		rows = append(rows, row)
	}
	return first, rows, nil
}
