//go:build !amd64

package stencil

// Only amd64 has a vector routine; everywhere else cpufeat.HasAVX2 is false,
// updateSpan's Go loop is the whole kernel and spanAVX2 is never reached.

func spanAVX2(dst, up, down, left, right *float64, n int) {
	panic("stencil: no vector kernel on this architecture")
}
