package mmps

import (
	"encoding/binary"
	"fmt"
	"math"
	"unsafe"

	"netpart/internal/cpufeat"
)

// Coercion helpers: MMPS exchanges typed data between clusters of different
// native formats by coercing to network byte order (big-endian) on the
// wire. These helpers are the per-byte conversion the cost model's T_coerce
// accounts for. Coercion only reverses the bytes of each word, so where the
// processor has AVX2 a vector routine (coerce_amd64.s) reverses every whole
// group of eight values and a Go loop the 0-7 left over; without it the Go
// loop does all of them. Either way the wire bytes are the same.

// useAVX2 is decided once, here, from what the processor and the operating
// system report (cpufeat, the module's one probe). Only the tests write it
// afterwards, to hold both paths to the same bytes on one machine.
var useAVX2 = cpufeat.HasAVX2()

// EncodeFloat64s serializes values big-endian.
func EncodeFloat64s(values []float64) []byte {
	return AppendFloat64s(nil, values)
}

// AppendFloat64s serializes values big-endian onto dst and returns the
// extended slice — the allocation-free variant for hot loops that reuse a
// scratch buffer (Transport.Send copies, so the buffer may be reused as
// soon as Send returns).
//
//netpart:hotpath
func AppendFloat64s(dst []byte, values []float64) []byte {
	off := len(dst)
	if need := off + 8*len(values); cap(dst) < need {
		grown := make([]byte, off, need)
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:off+8*len(values)]
	i := 0
	if useAVX2 && len(values) >= 8 {
		i = len(values) &^ 7
		swap64AVX2(unsafe.Pointer(unsafe.SliceData(dst[off:])), unsafe.Pointer(unsafe.SliceData(values)), i)
	}
	for ; i < len(values); i++ {
		binary.BigEndian.PutUint64(dst[off+8*i:], math.Float64bits(values[i]))
	}
	return dst
}

// DecodeFloat64s parses a big-endian float64 slice.
func DecodeFloat64s(buf []byte) ([]float64, error) {
	return DecodeFloat64sInto(nil, buf)
}

// DecodeFloat64sInto parses a big-endian float64 slice into dst's capacity
// (appending from dst's length), returning the extended slice. Pass a
// reused scratch as dst[:0] for an allocation-free decode.
//
//netpart:hotpath
func DecodeFloat64sInto(dst []float64, buf []byte) ([]float64, error) {
	if len(buf)%8 != 0 {
		return nil, fmt.Errorf("mmps: float64 payload of %d bytes", len(buf))
	}
	off := len(dst)
	if need := off + len(buf)/8; cap(dst) < need {
		grown := make([]float64, off, need)
		copy(grown, dst)
		dst = grown
	}
	n := len(buf) / 8
	dst = dst[:off+n]
	i := 0
	if useAVX2 && n >= 8 {
		i = n &^ 7
		swap64AVX2(unsafe.Pointer(unsafe.SliceData(dst[off:])), unsafe.Pointer(unsafe.SliceData(buf)), i)
	}
	for ; i < n; i++ {
		dst[off+i] = math.Float64frombits(binary.BigEndian.Uint64(buf[8*i:]))
	}
	return dst, nil
}
