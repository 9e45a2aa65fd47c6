package stencil

import (
	"encoding/binary"
	"fmt"
)

// Fault-tolerant runtime wire format. Every message between ftTask peers
// is one frame:
//
//	[type byte][epoch u32][cycle u32][payload]
//
// The epoch is the size of the deadset the sender's view was agreed on —
// every rank that crossed the same recovery barrier computes the same
// value. Most frames are content-addressed (the domain state at a given
// cycle is identical in every timeline, so borders keyed by global row and
// checkpoints keyed by source stay valid across recoveries) and carry the
// epoch for tracing only; FINISH is the exception, gated on epoch equality
// so a pre-rollback completion announcement cannot count afterwards.
const (
	ftBorder byte = iota + 1 // payload: halo frame (halo.go); cycle = iteration
	ftCkpt                   // payload: encodeRows(first, rows); cycle = checkpoint cycle
	ftFail                   // payload: deadset; a failure verdict being flooded
	ftSync                   // payload: syncInfo; recovery barrier contribution
	ftRows                   // payload: encodeRows; migration batch during recovery
	ftFinish                 // payload: empty; sender completed all iterations
	ftPing                   // payload: empty; keepalive while blocked (liveness, not progress)
)

const ftHeaderLen = 9

// ftFrame prepends the frame header to payload.
//
//netpart:wire ftframe encode
func ftFrame(typ byte, epoch, cycle int, payload []byte) []byte {
	return append(appendFTFrame(make([]byte, 0, ftHeaderLen+len(payload)), typ, epoch, cycle), payload...)
}

// appendFTFrame appends the frame header onto dst and returns the extended
// slice — the allocation-free variant for reused send buffers; the caller
// appends the payload behind it.
//
//netpart:hotpath
func appendFTFrame(dst []byte, typ byte, epoch, cycle int) []byte {
	off := len(dst)
	if need := off + ftHeaderLen; cap(dst) < need {
		grown := make([]byte, off, need)
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:off+ftHeaderLen]
	dst[off] = typ
	binary.BigEndian.PutUint32(dst[off+1:], uint32(epoch))
	binary.BigEndian.PutUint32(dst[off+5:], uint32(cycle))
	return dst
}

// ftParse splits a frame into its header fields and payload (aliasing buf).
//
//netpart:wire ftframe decode
func ftParse(buf []byte) (typ byte, epoch, cycle int, payload []byte, err error) {
	if len(buf) < ftHeaderLen {
		return 0, 0, 0, nil, fmt.Errorf("stencil: short ft frame (%d bytes)", len(buf))
	}
	typ = buf[0]
	if typ < ftBorder || typ > ftPing {
		return 0, 0, 0, nil, fmt.Errorf("stencil: unknown ft frame type %d", typ)
	}
	epoch = int(binary.BigEndian.Uint32(buf[1:]))
	cycle = int(binary.BigEndian.Uint32(buf[5:]))
	return typ, epoch, cycle, buf[ftHeaderLen:], nil
}

// encodeDeadset frames a sorted list of dead ranks.
func encodeDeadset(dead []int) []byte {
	buf := make([]byte, 4+4*len(dead))
	binary.BigEndian.PutUint32(buf, uint32(len(dead)))
	for i, d := range dead {
		binary.BigEndian.PutUint32(buf[4+4*i:], uint32(d))
	}
	return buf
}

// decodeDeadset reads a deadset, returning the ranks and the remaining
// bytes of buf.
func decodeDeadset(buf []byte) ([]int, []byte, error) {
	if len(buf) < 4 {
		return nil, nil, fmt.Errorf("stencil: short deadset")
	}
	// The count is bounded by the bytes that follow it before it is
	// multiplied: 4+4n overflows a 32-bit int.
	count := binary.BigEndian.Uint32(buf)
	if uint64(count) > uint64(len(buf)-4)/4 {
		return nil, nil, fmt.Errorf("stencil: deadset of %d bytes for %d ranks", len(buf), count)
	}
	n := int(count)
	dead := make([]int, n)
	for i := 0; i < n; i++ {
		dead[i] = int(binary.BigEndian.Uint32(buf[4+4*i:]))
	}
	return dead, buf[4+4*n:], nil
}

// syncInfo is one rank's contribution to the recovery barrier: the dead
// ranks it knows of, its newest own checkpoint cycle, and — if it holds
// buddy replicas for a ward — the ward's rank and newest replica cycle.
// Cycle 0 needs no checkpoint (every rank can regenerate cycle-0 rows from
// the initial grid), so a zero means "nothing beyond the implicit cycle-0
// snapshot".
type syncInfo struct {
	dead       []int
	ownLatest  int
	ward       int // -1 when the sender holds no replicas
	wardLatest int
}

func encodeSyncInfo(si syncInfo) []byte {
	buf := encodeDeadset(si.dead)
	tail := make([]byte, 12)
	binary.BigEndian.PutUint32(tail, uint32(si.ownLatest))
	binary.BigEndian.PutUint32(tail[4:], uint32(si.ward+1))
	binary.BigEndian.PutUint32(tail[8:], uint32(si.wardLatest))
	return append(buf, tail...)
}

func decodeSyncInfo(buf []byte) (syncInfo, error) {
	dead, rest, err := decodeDeadset(buf)
	if err != nil {
		return syncInfo{}, err
	}
	if len(rest) != 12 {
		return syncInfo{}, fmt.Errorf("stencil: sync info tail of %d bytes", len(rest))
	}
	return syncInfo{
		dead:       dead,
		ownLatest:  int(binary.BigEndian.Uint32(rest)),
		ward:       int(binary.BigEndian.Uint32(rest[4:])) - 1,
		wardLatest: int(binary.BigEndian.Uint32(rest[8:])),
	}, nil
}
