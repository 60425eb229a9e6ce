package mathx

// haveGELUAsm reports whether GELUInto may run geluAVX2: the CPU has AVX2
// and FMA and the OS saves the YMM state — which is also where math.Exp
// takes the fused path the routine copies. Probed once at package init; no
// flag, environment variable or build tag overrides it (ForceScalar is the
// tests' switch).
var haveGELUAsm = cpuHasGELU()

func cpuHasGELU() bool {
	avx2, fma, _ := CPUFeatures()
	return avx2 && fma
}

// ForceScalar routes GELUInto, CosInto and SincosInto through their Go
// definitions alone (on) or back to what the CPU probe chose (off), and
// reports which kernels are then active. It exists so tests and benchmarks
// can compare and time one implementation against the other; nothing else
// calls it, and it must not be called while those functions run.
func ForceScalar(on bool) (gelu, trig bool) {
	haveGELUAsm = !on && cpuHasGELU()
	haveTrigAsm = !on && cpuHasTrig()
	return haveGELUAsm, haveTrigAsm
}

// geluLanes runs the kernel over the longest prefix of x it can take — whole
// groups of four — and returns that prefix's length. The slices have equal
// length (t's may be zero: no stash): geluAVX2 checks nothing.
func geluLanes(y, t, x []float64) int {
	n := len(x) &^ 3
	if !haveGELUAsm || n == 0 {
		return 0
	}
	var tp *float64
	if len(t) != 0 {
		tp = &t[0]
	}
	geluAVX2(&y[0], tp, &x[0], n)
	return n
}

// geluAVX2 is GELUTanh over n elements in four AVX2 lanes (gelu_amd64.s),
// bit for bit, with no branch on the argument. Per element it performs the
// library's operations in the library's order, rounding where the compiled
// Go rounds (x*y+z is two roundings on amd64 at every GOAMD64 level) and
// fusing where archExp's FMA path fuses:
//
//	u = geluC·(x + ((geluA·x)·x)·x), z = |u|, s = z·z
//	small: z + ((z·s)·((P0·s + P1)·s + P2)) / (((s + Q0)·s + Q1)·s + Q2)
//	large: 1 − 2/(e + 1), e = exp(v), v = 2·min(z, MAXLOG/2):
//	       k = int32(LOG2E·v) to nearest even, r = fma(−k, LN2L, fma(−k, LN2U, v))/16,
//	       p = seven fma steps down 1/8! … 1/2!, 1; r = r·p; thrice r = r·(r+2);
//	       e = fma(r+2, r, 1) · 2ᵏ
//	t = (z ≥ 0.625 ? large : small) with u's sign; y = (0.5·x)·(1 + t)
//
// Both cases are computed for every lane. n must be a positive multiple of
// 4, y and x point at n elements, t at n or is nil (nothing is stashed); y
// may be x.
//
//go:noescape
func geluAVX2(y, t, x *float64, n int)

// CPUFeatures reads CPUID and XCR0 (gelu_amd64.s): whether AVX2, FMA and
// AVX-512F are there and the OS preserves the registers they use. It is the
// tree's one CPU probe; tensor's matmul tile reads it too.
func CPUFeatures() (avx2, fma, avx512f bool)
