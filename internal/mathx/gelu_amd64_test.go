package mathx

import (
	"os"
	"strings"
	"testing"
)

// TestCPUProbe holds the tree's one CPUID routine, and the gates the GELU and
// trig kernels derive from it, to the operating system's own reading of the
// same bits, where there is one to read: /proc/cpuinfo lists avx2 and fma
// exactly when the CPU has them and the OS saves the YMM state, and avx512f
// exactly when the CPU has it and the OS saves the opmask and ZMM state.
func TestCPUProbe(t *testing.T) {
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo to compare against: %v", err)
	}
	_, flags, ok := strings.Cut(string(info), "\nflags")
	if !ok {
		t.Skip("/proc/cpuinfo lists no flags")
	}
	flags, _, _ = strings.Cut(flags, "\n")
	has := map[string]bool{}
	for _, f := range strings.Fields(flags) {
		has[f] = true
	}
	avx2, fma, avx512f := CPUFeatures()
	if avx2 != has["avx2"] || fma != has["fma"] || avx512f != has["avx512f"] {
		t.Fatalf("CPUFeatures() = avx2 %v fma %v avx512f %v, /proc/cpuinfo says avx2 %v fma %v avx512f %v",
			avx2, fma, avx512f, has["avx2"], has["fma"], has["avx512f"])
	}
	if haveGELUAsm != (avx2 && fma) {
		t.Fatalf("haveGELUAsm = %v with avx2 %v fma %v", haveGELUAsm, avx2, fma)
	}
	if haveTrigAsm != has["avx2"] {
		t.Fatalf("haveTrigAsm = %v, /proc/cpuinfo says avx2 %v", haveTrigAsm, has["avx2"])
	}
}
