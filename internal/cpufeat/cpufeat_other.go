//go:build !amd64

package cpufeat

// HasAVX2 is false off amd64: only amd64 has vector routines, so every
// caller runs its Go loop.
func HasAVX2() bool { return false }
