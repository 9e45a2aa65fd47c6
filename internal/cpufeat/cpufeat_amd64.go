package cpufeat

// HasAVX2 reports whether the processor has AVX2 and the operating system
// preserves the YMM registers (cpufeat_amd64.s).
func HasAVX2() bool
