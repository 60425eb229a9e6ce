package mathx

import (
	"fmt"
	"math"
	"testing"
)

// checkGELU holds GELUInto to per-element GELUTanh on xs — value and stash,
// by bit pattern — forward-only (nil stash), recording, and in place.
func checkGELU(t testing.TB, xs []float64) {
	t.Helper()
	n := len(xs)
	buf := make([]float64, 4*n)
	y, th, yOnly, inPlace := buf[:n], buf[n:2*n], buf[2*n:3*n], buf[3*n:]
	GELUInto(y, th, xs)
	GELUInto(yOnly, nil, xs)
	copy(inPlace, xs)
	GELUInto(inPlace, nil, inPlace)
	for i, x := range xs {
		wy, wt := GELUTanh(x)
		if !sameFloat(y[i], wy) || !sameFloat(th[i], wt) || !sameFloat(yOnly[i], wy) || !sameFloat(inPlace[i], wy) {
			t.Fatalf("GELUInto(%v [%#x]) at %d of %d = (%v [%#x], %v [%#x]), forward-only %v, in place %v; GELUTanh (%v [%#x], %v [%#x])",
				x, math.Float64bits(x), i, n, y[i], math.Float64bits(y[i]), th[i], math.Float64bits(th[i]),
				yOnly[i], inPlace[i], wy, math.Float64bits(wy), wt, math.Float64bits(wt))
		}
	}
}

// geluArgAt returns an x whose u = geluC·(x + geluA·x³) is close to u: near
// enough that a few ulps either side of x cross u.
func geluArgAt(u float64) float64 {
	lo, hi := 0.0, u/geluC
	for i := 0; i < 200 && lo < hi; i++ {
		mid := lo + (hi-lo)/2
		if mid == lo || mid == hi {
			break
		}
		if geluC*(mid+geluA*mid*mid*mid) < u {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// geluEdges are the arguments where math.tanh changes case and the values
// special-case handling could disagree on.
func geluEdges() []float64 {
	const halfMaxLog = 0.5 * 8.8029691931113054295988e+01
	xs := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 2.2250738585072014e-308, 1e-300, -1e-300,
		1e300, -1e300, math.MaxFloat64, -math.MaxFloat64, 1e-8, 0.1, 1, 10, 100}
	for _, u := range []float64{0.625, halfMaxLog} {
		x := geluArgAt(u)
		for k := 0; k < 4; k++ {
			x = math.Nextafter(x, math.Inf(-1))
		}
		for k := 0; k < 9; k++ {
			xs = append(xs, x, -x)
			x = math.Nextafter(x, math.Inf(1))
		}
	}
	// Arguments at which one particular rounding decides the result: found
	// with a scalar model of the kernel (math.FMA where it fuses) by flipping
	// one site at a time. In order, three each: the last three fused steps of
	// the exponential split (coefficients 1/3!, 1/2! and the closing
	// (r+2)·r + 1); then x + a·x³, the two steps of P and the two of Q fused.
	for _, bits := range []uint64{
		0x3ffac9455dd04106,
		0x3ff08d63f43b6511, 0x3ff0605fd9395b04, 0x3ff61da1a7270068,
		0xbff0da244b6c66bd, 0x3ff11ed1bc70f94c, 0x40026ab98e4923e2,
		0xbff14833d8cc5b3e, 0x3ff1d59ab2cea841, 0xbff2d5e8f2721daf,
		0x3ff7d7861416cb4c, 0x3ffa98238fbcc416, 0x3fe30b9e601c4e48,
		0x3fe795bda359ef02, 0xbfe783c9ef67992d, 0x3fe590a6df2cfd20,
		0xbfe3f7822e390092, 0x3fe46b6df1224db2, 0x3fe79a1dc3993337,
		0x3fe794d4b07b3b65, 0x3fe79ee78166a76a, 0x3fe519f0ac2ad66d,
		0x3fe45320d1a321cd, 0x3fe31e3d9cb72d60, 0x3fe6f198befd2b68,
	} {
		xs = append(xs, math.Float64frombits(bits))
	}
	return xs
}

// TestGELUKernelMatchesLibrary is the kernel's contract: GELUInto ≡ GELUTanh
// per element, bit for bit (any NaN standing for any other). Its job is to
// fail if a VFMADD in gelu_amd64.s is split into a multiply and an add, a
// multiply-add pair is fused, or a constant is off by an ulp — and if a Go
// release changes math.Tanh or math.Exp underneath GELUTanh. The seeded
// arguments catch most of those and geluEdges' last block the rest that can
// be caught: splitting the first four Taylor steps or the LN2L step changes
// fewer than one result in 6·10⁸ (none was found), and k·LN2U and the 2ᵏ
// product are exact, fused or not. Without AVX2 + FMA (and off amd64)
// GELUInto is the GELUTanh loop and this passes trivially.
func TestGELUKernelMatchesLibrary(t *testing.T) {
	// Every length 0…9 at every offset 0…3 into one backing array — tails of
	// 0…3 scalar elements behind 0…2 groups, loads at every alignment — with
	// sentinels either side of each output.
	rng := NewRNG(24)
	back := make([]float64, 16)
	for i := range back {
		back[i] = 2 * rng.NormFloat64()
	}
	for off := 0; off <= 3; off++ {
		for n := 0; n <= 9; n++ {
			x := back[off : off+n]
			checkGELU(t, x)
			const guard = -12345.5
			y, th := make([]float64, n+2), make([]float64, n+2)
			y[0], y[n+1], th[0], th[n+1] = guard, guard, guard, guard
			GELUInto(y[1:n+1], th[1:n+1], x)
			if y[0] != guard || y[n+1] != guard || th[0] != guard || th[n+1] != guard {
				t.Fatalf("offset %d length %d: GELUInto wrote outside its output", off, n)
			}
		}
	}

	edges := geluEdges()
	checkGELU(t, edges)
	// Each edge in each lane, among ordinary neighbours.
	for lane := 0; lane < 4; lane++ {
		for _, e := range edges {
			x := []float64{0.3, -1.7, 2.9, -0.05, 0.8}
			x[lane] = e
			checkGELU(t, x)
		}
	}

	// Seeded arguments from all-small-case to all-saturated.
	xs := make([]float64, 1<<20)
	for _, sigma := range []float64{0.01, 0.3, 1, 3, 20, 1000} {
		for i := range xs {
			xs[i] = sigma * rng.NormFloat64()
		}
		checkGELU(t, xs)
	}
	// Every binade, both signs.
	for i := range xs {
		xs[i] = math.Float64frombits(rng.Uint64())
	}
	checkGELU(t, xs)
}

// FuzzGELUMatchesLibrary runs its seed corpus as a plain test; under -fuzz
// it searches float64 bit patterns for one where kernel and library part.
// The argument is placed in each of the four lanes.
func FuzzGELUMatchesLibrary(f *testing.F) {
	for _, x := range geluEdges() {
		f.Add(x)
	}
	f.Fuzz(func(t *testing.T, x float64) {
		checkGELU(t, []float64{x, 0.5, -x, 3, 1e-3, x, -40, 0.7, -0.6})
	})
}

// BenchmarkGELU times the GELUTanh loop against the kernel, per element, on
// 2¹⁸ normal arguments: at σ = 0.3 nearly all take math.tanh's small case, at
// σ = 3 nearly all the exponential, and at σ = 1 — a hidden layer's
// pre-activations — the two alternate and the library's branch mispredicts.
// Forward-only (no stash) and recording.
func BenchmarkGELU(b *testing.B) {
	const n = 1 << 18
	x, y, th := make([]float64, n), make([]float64, n), make([]float64, n)
	defer ForceScalar(false)
	for _, sigma := range []float64{0.3, 1, 3} {
		rng := NewRNG(9)
		for i := range x {
			x[i] = sigma * rng.NormFloat64()
		}
		for _, impl := range []string{"library", "kernel"} {
			if kernel, _ := ForceScalar(impl == "library"); !kernel && impl == "kernel" {
				continue // no AVX2 + FMA: there is one implementation
			}
			for _, stash := range []struct {
				name string
				t    []float64
			}{{"forward", nil}, {"stash", th}} {
				b.Run(fmt.Sprintf("sigma=%v/%s/%s", sigma, impl, stash.name), func(b *testing.B) {
					for it := 0; it < b.N; it++ {
						GELUInto(y, stash.t, x)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/elem")
				})
			}
		}
	}
}
