package mathx

// haveTrigAsm reports whether CosInto and SincosInto may run trigAVX2: the
// CPU has AVX2 and the OS saves the YMM state. Probed once at package init
// through CPUFeatures; no flag, environment variable or build tag overrides
// it (ForceScalar is the tests' switch).
var haveTrigAsm = cpuHasTrig()

func cpuHasTrig() bool {
	avx2, _ := CPUFeatures()
	return avx2
}

// trigLanes writes cos(x) into cos and, unless sin is nil, sin(x) into sin
// over the longest prefix of x made of whole groups of four, and returns that
// prefix's length. A group with a lane outside the kernel's reduction goes
// through the Go loops on its own, before the kernel resumes behind it; the
// kernel leaves such a group unread and unwritten, so cos may be x. The
// slices have equal length (sin's may be zero): trigAVX2 checks nothing.
func trigLanes(cos, sin, x []float64) int {
	n := len(x) &^ 3
	if !haveTrigAsm || n == 0 {
		return 0
	}
	for i := 0; i < n; i += 4 {
		var sp *float64
		if sin != nil {
			sp = &sin[i]
		}
		if i += trigAVX2(&cos[i], sp, &x[i], n-i); i == n {
			break
		}
		if sin == nil {
			cosGo(cos[i:i+4], x[i:i+4])
		} else {
			sincosGo(sin[i:i+4], cos[i:i+4], x[i:i+4])
		}
	}
	return n
}

// trigAVX2 is cosGo and, with a non-nil sin, sincosGo over n elements in
// four AVX2 lanes (cos_amd64.s), bit for bit, with no branch on the argument
// inside a group. Per lane it performs trigOctant's operations in
// trigOctant's order — math.cos's — each multiply and add rounded on its
// own, as the amd64 compiler emits x*y+z at every GOAMD64 level:
//
//	j = int32(|x|·(4/π)) (VCVTTPD2DQ: exact, |x|·4/π < 2³¹); j += j&1; y = float64(j)
//	z = ((|x| − y·PI4A) − y·PI4B) − y·PI4C, zz = z·z
//	c = (1 − 0.5·zz) + (zz·zz)·C(zz), s = z + (z·zz)·S(zz), both Horner chains unfused
//	q = (j>>1)&3: cos = (q odd ? s : c) ^ (q>>1 ^ q&1)<<63,
//	              sin = (q odd ? c : s) ^ (q>>1)<<63 ^ sign(x)
//
// A group with a lane where !(|x| < 2²⁹) — Payne–Hanek range, ±Inf, NaN —
// stops the routine before anything of that group is stored, found by one
// vector compare per group; it returns the count of elements written. n must
// be a positive multiple of 4, cos and x point at n elements, sin at n or is
// nil (cosine only); cos may be x.
//
//go:noescape
func trigAVX2(cos, sin, x *float64, n int) (done int)
