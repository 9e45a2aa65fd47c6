//go:build !amd64

package mmps

import "unsafe"

// Only amd64 has a vector routine; everywhere else cpufeat.HasAVX2 is false,
// the coercion helpers' Go loops do all the work and swap64AVX2 is never
// reached.

func swap64AVX2(dst, src unsafe.Pointer, n int) {
	panic("mmps: no vector coercion on this architecture")
}
