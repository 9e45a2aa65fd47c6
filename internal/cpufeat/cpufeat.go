// Package cpufeat is the module's one processor-feature probe. The vector
// routines of internal/stencil (the five-point kernel) and internal/mmps (the
// byte-order coercion) each choose their path once, at package init, from
// HasAVX2; neither carries a CPUID routine of its own.
package cpufeat
