package mmps

import "unsafe"

// swap64AVX2 writes the n 64-bit words at src to dst with each word's bytes
// reversed, eight words at a time (coerce_amd64.s); n is a positive
// multiple of 8. dst and src are either the same address or disjoint. It
// may only be called when cpufeat.HasAVX2 said yes.
//
//go:noescape
func swap64AVX2(dst, src unsafe.Pointer, n int)
