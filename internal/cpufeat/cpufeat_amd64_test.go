package cpufeat

import (
	"os"
	"strings"
	"testing"
)

// TestCPUProbeAgreesWithKernel holds the CPUID/XGETBV probe to the Linux
// kernel's reading of the same processor, where there is one: a probe that
// quietly answered no would leave every test green and the vector routines
// unused.
func TestCPUProbeAgreesWithKernel(t *testing.T) {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo to compare with: %v", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		name, flags, ok := strings.Cut(line, ":")
		if !ok || strings.TrimSpace(name) != "flags" {
			continue
		}
		want := false
		for _, f := range strings.Fields(flags) {
			want = want || f == "avx2"
		}
		if got := HasAVX2(); got != want {
			t.Fatalf("HasAVX2() = %v, /proc/cpuinfo flags say %v", got, want)
		}
		return
	}
	t.Skip("/proc/cpuinfo has no flags line")
}
