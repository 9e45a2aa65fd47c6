package mmps

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime/debug"
	"testing"

	"netpart/internal/cpufeat"
)

// withCoercion runs f with the coercion helpers on the Go loop (avx2
// false) or on the vector routine (true), and puts the dispatch back
// afterwards. Callers do not run in parallel: useAVX2 is a plain package
// variable.
func withCoercion(avx2 bool, f func()) {
	was := useAVX2
	defer func() { useAVX2 = was }()
	useAVX2 = avx2
	f()
}

// coercionPaths lists the coercion paths this machine can run: the Go loop
// always, the vector routine where the processor has AVX2.
func coercionPaths() []bool {
	if cpufeat.HasAVX2() {
		return []bool{false, true}
	}
	return []bool{false}
}

func TestCoerceDispatchFollowsProbe(t *testing.T) {
	if useAVX2 != cpufeat.HasAVX2() {
		t.Fatalf("useAVX2 = %v at start-up, the probe says %v", useAVX2, cpufeat.HasAVX2())
	}
}

// specialBits are the float64 bit patterns a byte-order routine could
// mistreat if it ever touched values as numbers: both zeros, both
// infinities, quiet and signalling NaNs with payloads, the smallest and
// largest denormals, and the extremes of the normal range.
var specialBits = []uint64{
	0x0000000000000000, 0x8000000000000000, // ±0
	0x7FF0000000000000, 0xFFF0000000000000, // ±Inf
	0x7FF8000000000000, 0xFFF8000000000001, // quiet NaNs
	0x7FF0000000000001, 0x7FF4DEADBEEF0123, // signalling NaNs with payloads
	0xFFF7FFFFFFFFFFFF, 0x7FFFFFFFFFFFFFFF, // the extreme NaN payloads
	0x0000000000000001, 0x800FFFFFFFFFFFFF, // denormals
	0x0010000000000000, 0x7FEFFFFFFFFFFFFF, // smallest and largest normal
}

// coerceBits draws n bit patterns: the specials first, then random words.
func coerceBits(rng *rand.Rand, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		if i < len(specialBits) {
			out[i] = specialBits[i]
		} else {
			out[i] = rng.Uint64()
		}
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// guard fills the bytes the helpers must not write.
const guard = 0xA5

// TestCoercePathsAgree holds the vector routine and the Go loop to the
// same bytes, and both to encoding/binary's big-endian words, at every
// length from 0 to 67 values (no whole group of eight, one, and eight with
// every remainder), with the byte side at every offset mod 32 and the
// float64 side at every offset mod 32 an aligned float64 can take. Nothing
// outside the written range may change, and a decoded word must carry the
// encoded one's bits exactly, NaN payloads included.
func TestCoercePathsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for n := 0; n <= 67; n++ {
		bits := coerceBits(rng, n)
		want := make([]byte, 8*n)
		for i, b := range bits {
			binary.BigEndian.PutUint64(want[8*i:], b)
		}
		for byteOff := 0; byteOff < 32; byteOff++ {
			for wordOff := 0; wordOff < 4; wordOff++ {
				for _, avx2 := range coercionPaths() {
					withCoercion(avx2, func() {
						checkEncode(t, bits, want, byteOff, wordOff, avx2)
						checkDecode(t, bits, want, byteOff, wordOff, avx2)
					})
				}
			}
		}
	}
}

// checkEncode appends the n values, held at word offset wordOff, onto a
// buffer of byteOff guard bytes.
func checkEncode(t *testing.T, bits []uint64, want []byte, byteOff, wordOff int, avx2 bool) {
	t.Helper()
	n := len(bits)
	src := make([]float64, wordOff+n)[wordOff:]
	for i, b := range bits {
		src[i] = math.Float64frombits(b)
	}
	backing := bytes.Repeat([]byte{guard}, byteOff+8*n+64)
	got := AppendFloat64s(backing[:byteOff], src)
	if len(got) != byteOff+8*n || (n > 0 && &got[0] != &backing[0]) {
		t.Fatalf("avx2=%v n=%d: append of %d bytes at offset %d returned %d bytes, or a new buffer", avx2, n, 8*n, byteOff, len(got))
	}
	if !bytes.Equal(got[byteOff:], want) {
		t.Fatalf("avx2=%v n=%d offsets %d/%d: encoded % x, want % x", avx2, n, byteOff, wordOff, got[byteOff:], want)
	}
	for i, c := range backing {
		if (i < byteOff || i >= byteOff+8*n) && c != guard {
			t.Fatalf("avx2=%v n=%d offsets %d/%d: byte %d outside the row written", avx2, n, byteOff, wordOff, i)
		}
	}
}

// checkDecode decodes the encoded row, held at byte offset byteOff, into a
// float64 slice of wordOff guard words.
func checkDecode(t *testing.T, bits []uint64, want []byte, byteOff, wordOff int, avx2 bool) {
	t.Helper()
	n := len(bits)
	buf := make([]byte, byteOff+len(want))[byteOff:]
	copy(buf, want)
	guardWord := math.Float64frombits(0xA5A5A5A5A5A5A5A5)
	backing := make([]float64, wordOff+n+8)
	for i := range backing {
		backing[i] = guardWord
	}
	got, err := DecodeFloat64sInto(backing[:wordOff], buf)
	if err != nil {
		t.Fatalf("avx2=%v n=%d: %v", avx2, n, err)
	}
	if len(got) != wordOff+n || &got[0:1][0] != &backing[0] {
		t.Fatalf("avx2=%v n=%d: decode returned %d values, or a new slice", avx2, n, len(got))
	}
	for i, v := range backing {
		b := math.Float64bits(v)
		switch {
		case i >= wordOff && i < wordOff+n && b != bits[i-wordOff]:
			t.Fatalf("avx2=%v n=%d offsets %d/%d: value %d decoded as %#016x, want %#016x", avx2, n, byteOff, wordOff, i-wordOff, b, bits[i-wordOff])
		case (i < wordOff || i >= wordOff+n) && b != math.Float64bits(guardWord):
			t.Fatalf("avx2=%v n=%d offsets %d/%d: word %d outside the row written", avx2, n, byteOff, wordOff, i)
		}
	}
}

// FuzzCoerce holds the vector routine to the Go loop on arbitrary bytes at
// an arbitrary offset: both decode a payload to the same words, both
// encode those words back to the payload, and both refuse a payload that
// is not a whole number of words.
func FuzzCoerce(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add(bytes.Repeat([]byte{0x7F, 0xF8, 0, 0, 0, 0, 0, 1}, 9), uint8(3))
	f.Add(make([]byte, 8*64+5), uint8(31))
	f.Fuzz(func(t *testing.T, data []byte, off uint8) {
		buf := make([]byte, int(off%32)+len(data))[off%32:]
		copy(buf, data)
		var decoded [2][]float64
		var errs [2]error
		for _, avx2 := range coercionPaths() {
			withCoercion(avx2, func() {
				k := 0
				if avx2 {
					k = 1
				}
				decoded[k], errs[k] = DecodeFloat64s(buf)
				if (errs[k] == nil) != (len(buf)%8 == 0) {
					t.Fatalf("avx2=%v: %d-byte payload, err %v", avx2, len(buf), errs[k])
				}
				if errs[k] == nil && !bytes.Equal(EncodeFloat64s(decoded[k]), buf) {
					t.Fatalf("avx2=%v: round trip of % x changed it", avx2, buf)
				}
			})
		}
		if len(coercionPaths()) == 2 && errs[0] == nil {
			for i := range decoded[0] {
				if a, b := math.Float64bits(decoded[0][i]), math.Float64bits(decoded[1][i]); a != b {
					t.Fatalf("value %d: Go loop %#016x, vector %#016x", i, a, b)
				}
			}
		}
	})
}

// BenchmarkCoerce measures one halo row through the codec: encode n values
// into a reused buffer and decode them back into a reused row, on the path
// this machine dispatches (n=…) and, where that is the vector routine, on
// the Go loop as well (go/n=…). TestCoerceAllocationBudget holds the
// dispatched path to zero allocations per op.
func BenchmarkCoerce(b *testing.B) {
	for _, n := range coerceSizes {
		run := func(b *testing.B) {
			b.SetBytes(int64(16 * n))
			b.ReportAllocs()
			op := coerceOp(b, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op()
			}
		}
		b.Run(fmt.Sprintf("n=%d", n), run)
		if useAVX2 {
			b.Run(fmt.Sprintf("go/n=%d", n), func(b *testing.B) {
				withCoercion(false, func() { run(b) })
			})
		}
	}
}

// coerceSizes are BenchmarkCoerce's row lengths.
var coerceSizes = []int{64, 512, 1024}

// coerceOp encodes an n-value row into a reused buffer and decodes it back
// into a reused row.
func coerceOp(tb testing.TB, n int) func() {
	row := make([]float64, n)
	for i := range row {
		row[i] = float64(i) * 0.25
	}
	buf := make([]byte, 0, 8*n)
	into := make([]float64, 0, n)
	return func() {
		buf = AppendFloat64s(buf[:0], row)
		var err error
		if into, err = DecodeFloat64sInto(into[:0], buf); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestCoerceAllocationBudget holds BenchmarkCoerce's dispatched path to
// zero allocations per op at every size: AppendFloat64s and
// DecodeFloat64sInto are //netpart:hotpath, and this is the dynamic half of
// that contract. Skips under -race, which allocates on its own.
func TestCoerceAllocationBudget(t *testing.T) {
	if raceDetector() {
		t.Skip("the race detector changes allocation counts")
	}
	for _, n := range coerceSizes {
		if allocs := testing.AllocsPerRun(100, coerceOp(t, n)); allocs != 0 {
			t.Errorf("n=%d: %v allocs/op, budget 0", n, allocs)
		}
	}
}

// raceDetector reports whether this test binary was built with -race.
func raceDetector() bool {
	bi, _ := debug.ReadBuildInfo()
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}
