package repart

import (
	"bytes"
	"testing"
	"testing/quick"

	"netpart/internal/core"
)

// Property: the measurement and vector-pair codecs round-trip.
func TestWireCodecsProperty(t *testing.T) {
	f := func(msRaw uint32, rowsRaw uint16, vecRaw []uint16) bool {
		ms := float64(msRaw) / 7
		rows := int(rowsRaw)
		gotMs, gotRows, err := DecodeMeasurement(EncodeMeasurement(ms, rows))
		if err != nil || gotMs != ms || gotRows != rows {
			return false
		}
		if len(vecRaw) == 0 || len(vecRaw) > 32 {
			return true
		}
		old := make(core.Vector, len(vecRaw))
		new_ := make(core.Vector, len(vecRaw))
		for i, v := range vecRaw {
			old[i] = int(v)
			new_[i] = int(v) + 1
		}
		gotOld, gotNew, err := DecodeVectorPair(EncodeVectorPair(old, new_))
		if err != nil {
			return false
		}
		for i := range old {
			if gotOld[i] != old[i] || gotNew[i] != new_[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRowBatchCodec(t *testing.T) {
	rows := [][]float64{{1, 2, 3}, {4, 5, 6}}
	first, got, err := DecodeRows(EncodeRows(7, rows), 3)
	if err != nil || first != 7 {
		t.Fatalf("first=%d err=%v", first, err)
	}
	for i := range rows {
		for j := range rows[i] {
			if got[i][j] != rows[i][j] {
				t.Fatal("rows corrupted")
			}
		}
	}
	if _, _, err := DecodeRows([]byte{1}, 3); err == nil {
		t.Error("short batch accepted")
	}
	if _, _, err := DecodeRows(EncodeRows(0, rows), 4); err == nil {
		t.Error("wrong width accepted")
	}
}

func TestWireCodecErrors(t *testing.T) {
	if _, _, err := DecodeMeasurement([]byte{1, 2, 3}); err == nil {
		t.Error("short measurement accepted")
	}
	if _, _, err := DecodeVectorPair([]byte{1}); err == nil {
		t.Error("short vector pair accepted")
	}
	// Truncated body: header says 2 ranks, body holds 1.
	buf := EncodeVectorPair(core.Vector{3, 5}, core.Vector{4, 4})
	if _, _, err := DecodeVectorPair(buf[:len(buf)-8]); err == nil {
		t.Error("truncated vector pair accepted")
	}
	// Empty batch round-trips.
	first, rows, err := DecodeRows(EncodeRows(9, nil), 4)
	if err != nil || first != 9 || len(rows) != 0 {
		t.Errorf("empty batch: first=%d rows=%d err=%v", first, len(rows), err)
	}
}

// FuzzRepartWire feeds arbitrary frames to every decoder: none may panic,
// and a frame a decoder accepts must re-encode to the same bytes.
func FuzzRepartWire(f *testing.F) {
	f.Add(EncodeVectorPair(core.Vector{3, 5}, core.Vector{4, 4}), 2)
	f.Add(EncodeRows(7, [][]float64{{1, 2, 3}, {4, 5, 6}}), 3)
	f.Add(EncodeMeasurement(1.5, 4), 1)
	// Headers declaring 2^60 ranks and 2^61 rows in short frames.
	f.Add([]byte{0x10, 0, 0, 0, 0, 0, 0, 0}, 1)
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0x20, 0, 0, 0, 0, 0, 0, 0}, 1)
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0x20, 0, 0, 0, 0, 0, 0, 0}, 0)
	f.Fuzz(func(t *testing.T, buf []byte, width int) {
		if ms, rows, err := DecodeMeasurement(buf); err == nil && !bytes.Equal(EncodeMeasurement(ms, rows), buf) {
			t.Errorf("measurement %x re-encodes differently", buf)
		}
		if old, new_, err := DecodeVectorPair(buf); err == nil && !bytes.Equal(EncodeVectorPair(old, new_), buf) {
			t.Errorf("vector pair %x re-encodes differently", buf)
		}
		width %= 64 // a row batch's width is the caller's, never the frame's
		if first, rows, err := DecodeRows(buf, width); err == nil {
			if got := EncodeRows(first, rows); !bytes.Equal(got, buf) {
				t.Errorf("row batch %x (width %d) re-encodes as %x", buf, width, got)
			}
		}
	})
}
