package stencil

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"netpart/internal/cpufeat"
)

// setKernel puts updateSpan on the Go loop (false) or on the vector routine
// (true) until the test or benchmark ends. Tests that use it do not run in
// parallel: useAVX2 is a plain package variable.
func setKernel(tb testing.TB, avx2 bool) {
	was := useAVX2
	tb.Cleanup(func() { useAVX2 = was })
	useAVX2 = avx2
}

// eachKernel runs f once with updateSpan's Go loop doing all the work and,
// where the processor has AVX2, once with the vector routine dispatched, so
// the fallback stays tested on the machines that never take it.
func eachKernel(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	for _, avx2 := range []bool{false, true}[:kernelPaths()] {
		name := "go"
		if avx2 {
			name = "avx2"
		}
		t.Run(name, func(t *testing.T) {
			setKernel(t, avx2)
			f(t)
		})
	}
}

// TestKernelDispatchFollowsProbe: useAVX2 starts as the processor probe
// says, so on a machine with AVX2 the vector routine is what runs.
func TestKernelDispatchFollowsProbe(t *testing.T) {
	if useAVX2 != cpufeat.HasAVX2() {
		t.Fatalf("useAVX2 = %v at start-up, the probe says %v", useAVX2, cpufeat.HasAVX2())
	}
}

// kernelPaths is how many of updateSpan's paths this machine can run.
func kernelPaths() int {
	if cpufeat.HasAVX2() {
		return 2
	}
	return 1
}

// kernelValue draws one operand for the bit-identity properties: normals of both signs and many exponents, denormals, both zeros,
// both infinities and ±MaxFloat64, whose sums overflow. No NaN goes in. The
// only NaN that can come out is the default quiet NaN of Inf + -Inf, which
// scalar and vector adds produce and propagate alike; which of two
// different NaN payloads an add keeps is the one thing the two paths are
// not held to.
func kernelValue(rng *rand.Rand) float64 {
	sign := float64(1 - 2*rng.Intn(2))
	switch rng.Intn(10) {
	case 0:
		return sign * 0
	case 1:
		return sign * math.Inf(1)
	case 2:
		return sign * math.MaxFloat64
	case 3, 4:
		return sign * math.Float64frombits(uint64(rng.Int63n(1<<52))) // denormal, or +0
	case 5:
		return sign * math.Float64frombits(uint64(1+rng.Intn(3))<<52|uint64(rng.Int63n(1<<52))) // sums and quarters of these go denormal
	default:
		return sign * math.Ldexp(1+rng.Float64(), rng.Intn(120)-60)
	}
}

// aligned32 returns buf from its first 32-byte-aligned element on, so that
// an offset of k elements is an offset of 8k bytes from a YMM boundary.
func aligned32(buf []float64) []float64 {
	for uintptr(unsafe.Pointer(&buf[0]))%32 != 0 {
		buf = buf[1:]
	}
	return buf
}

// TestSpanAVX2BitIdentical calls the assembly routine directly and holds it
// to the scalar expression, bit for bit: every span length 0..67 (what is
// left after the whole groups of four goes through the scalar expression, as
// in updateSpan), every 8-byte offset 0..3 of each of the five operands from
// a 32-byte boundary, and values from kernelValue. The words after the span
// must come out untouched. The two overlaps the in-place sweep uses — dst the
// very same words as up, and as down — must give the disjoint call's bits at
// every alignment of the four inputs.
func TestSpanAVX2BitIdentical(t *testing.T) {
	if !cpufeat.HasAVX2() {
		t.Skip("no AVX2 on this machine")
	}
	const maxLen, guard = 67, 4
	rng := rand.New(rand.NewSource(1994))
	var bufs [5][]float64
	for i := range bufs {
		bufs[i] = aligned32(make([]float64, 4+3+maxLen+guard))[:3+maxLen+guard]
	}
	want := make([]float64, maxLen)
	sentinel := make([]float64, guard)
	saved := make([]float64, maxLen+guard)
	for m := 0; m <= maxLen; m++ {
		// Fresh operands per length; each offset combination then sees them
		// at a different alignment and pairing.
		for _, buf := range bufs {
			for j := range buf {
				buf[j] = kernelValue(rng)
			}
		}
		for offs := 0; offs < 1<<10; offs++ {
			var s [5][]float64 // dst, up, down, left, right
			for i := range s {
				s[i] = bufs[i][offs>>(2*i)&3:][:m+guard]
			}
			d, u, w, l, r := s[0], s[1], s[2], s[3], s[4]
			for j := 0; j < m; j++ {
				want[j] = (u[j] + w[j] + l[j] + r[j]) * 0.25
			}
			copy(sentinel, d[m:])
			n := m &^ 3
			if n > 0 {
				spanAVX2(&d[0], &u[0], &w[0], &l[0], &r[0], n)
			}
			for j := n; j < m; j++ {
				d[j] = (u[j] + w[j] + l[j] + r[j]) * 0.25
			}
			for j := 0; j < m; j++ {
				if math.Float64bits(d[j]) != math.Float64bits(want[j]) {
					t.Fatalf("len %d offsets %010b point %d: (%v + %v + %v + %v) * 0.25 = %x, scalar %x",
						m, offs, j, u[j], w[j], l[j], r[j], math.Float64bits(d[j]), math.Float64bits(want[j]))
				}
			}
			for j, v := range sentinel {
				if math.Float64bits(d[m+j]) != math.Float64bits(v) {
					t.Fatalf("len %d offsets %010b: wrote %d past the span", m, offs, j)
				}
			}
			if offs&3 != 0 {
				continue // dst's own offset plays no part below
			}
			for i, alias := range [][]float64{u, w} {
				name := [...]string{"up", "down"}[i]
				copy(saved, alias)
				if n > 0 {
					spanAVX2(&alias[0], &u[0], &w[0], &l[0], &r[0], n)
				}
				for j := n; j < m; j++ {
					alias[j] = (u[j] + w[j] + l[j] + r[j]) * 0.25
				}
				for j, v := range saved[:len(alias)] {
					if j < m {
						v = want[j]
					}
					if math.Float64bits(alias[j]) != math.Float64bits(v) {
						t.Fatalf("len %d offsets %010b point %d, dst == %s: %x, disjoint %x",
							m, offs, j, name, math.Float64bits(alias[j]), math.Float64bits(v))
					}
				}
				copy(alias, saved)
			}
		}
	}
}

// TestUpdateSpanPathsAgree holds the two paths of the dispatch itself to
// each other over every span length and starting column, on the same
// operand classes — and each path, called with dst == up and with dst ==
// down, to its own disjoint call: the span's points the same bits, the rest
// of the aliased row untouched.
func TestUpdateSpanPathsAgree(t *testing.T) {
	if !cpufeat.HasAVX2() {
		t.Skip("no AVX2 on this machine")
	}
	setKernel(t, true)
	const width = 80
	rng := rand.New(rand.NewSource(2741))
	cur, up, down := make([]float64, width), make([]float64, width), make([]float64, width)
	got, want := make([]float64, width), make([]float64, width)
	for lo := 1; lo <= 5; lo++ {
		for hi := lo; hi < width; hi++ {
			for j := range cur {
				cur[j], up[j], down[j] = kernelValue(rng), kernelValue(rng), kernelValue(rng)
				got[j], want[j] = 1, 1
			}
			useAVX2 = false
			updateSpan(want, cur, up, down, lo, hi)
			useAVX2 = true
			updateSpan(got, cur, up, down, lo, hi)
			for j := range want {
				if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
					t.Fatalf("span [%d, %d) column %d: avx2 %x, go %x", lo, hi, j, math.Float64bits(got[j]), math.Float64bits(want[j]))
				}
			}
			for i, alias := range [][]float64{up, down} {
				name := [...]string{"up", "down"}[i]
				for _, useAVX2 = range []bool{false, true} {
					copy(got, alias)
					updateSpan(alias, cur, up, down, lo, hi)
					for j, v := range got {
						if j >= lo && j < hi {
							v = want[j]
						}
						if math.Float64bits(alias[j]) != math.Float64bits(v) {
							t.Fatalf("span [%d, %d) column %d, dst == %s, avx2 %v: %x, disjoint %x",
								lo, hi, j, name, useAVX2, math.Float64bits(alias[j]), math.Float64bits(v))
						}
					}
					copy(alias, got)
				}
			}
		}
	}
}

// TestDenormalRegimeMatchesSeed runs long enough for the diffusion front to
// go denormal (100·4^-k leaves the normal range at k = 513; ROADMAP's "cycles
// are not equally expensive") on a grid deep enough that the front is still
// inside it at the end, and requires the live runtime's grid to equal the
// seed kernel's bit for bit there, on both kernel paths, with clean and with
// poisoned blocks: a kernel that flushed denormals to zero would be faster
// and wrong.
func TestDenormalRegimeMatchesSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("560 iterations of a 601×601 grid, five times over")
	}
	const n, iters = 601, 560
	want := seedSequential(NewGrid(n), iters)
	denormals := 0
	for _, row := range want {
		for _, v := range row {
			if v != 0 && math.Abs(v) < 0x1p-1022 {
				denormals++
			}
		}
	}
	if denormals == 0 {
		t.Fatal("the reference run never reached the denormal range")
	}
	eachKernelPoisoned(t, func(t *testing.T) {
		world := localWorld(t, 3)
		defer closeWorld(world)
		res, err := Live(world, core3Vector(n), STEN2, n, iters, Options{})
		if err != nil {
			t.Fatal(err)
		}
		gridsMatch(t, res.Grid, want)
	})
}

// BenchmarkUpdateSpan times one span update on L1-resident rows, per path
// and span length: the short lengths are where vectorMinSpan comes from (the
// 4-point row of E21 was taken with the constant lowered to 4), 62 is the
// live-exchange-local workload's span, and 512 is the kernel with no cache
// misses at all.
func BenchmarkUpdateSpan(b *testing.B) {
	const width = 514
	cur, up, down, dst := make([]float64, width), make([]float64, width), make([]float64, width), make([]float64, width)
	for j := range cur {
		cur[j], up[j], down[j] = float64(j), float64(2*j), float64(3*j)
	}
	for _, avx2 := range []bool{false, true}[:kernelPaths()] {
		name := "go"
		if avx2 {
			name = "avx2"
		}
		for _, m := range []int{8, 12, 16, 24, 32, 62, 512} {
			b.Run(fmt.Sprintf("%s/m=%d", name, m), func(b *testing.B) {
				setKernel(b, avx2)
				b.SetBytes(int64(8 * m))
				for i := 0; i < b.N; i++ {
					updateSpan(dst, cur, up, down, 1, 1+m)
				}
			})
		}
	}
}
