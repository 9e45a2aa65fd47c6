package stencil

// spanAVX2 is the five-point update of n points, n a positive multiple of
// 4, four lanes at a time (kernel_amd64.s). dst may be up or down; it may
// overlap nothing else. It may only be called when cpufeat.HasAVX2 said yes.
//
//go:noescape
func spanAVX2(dst, up, down, left, right *float64, n int)
