package mathx

import (
	"math"
	"testing"
)

// sameFloat is bit equality, any NaN standing for any other.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// checkTrig holds the kernels to the library on xs, in place and out of
// place, and the library to itself: CosInto ≡ SincosInto ≡ math.Sincos ≡
// (math.Sin, math.Cos). The recording pass of autograd's Cos takes its value
// from the sincos kernel and a forward-only pass from the cos kernel, so a
// disagreement anywhere along that chain moves a pinned trajectory.
func checkTrig(t testing.TB, xs []float64) {
	t.Helper()
	n := len(xs)
	buf := make([]float64, 4*n)
	cos, sin, cos2, inPlace := buf[:n], buf[n:2*n], buf[2*n:3*n], buf[3*n:]
	CosInto(cos, xs)
	SincosInto(sin, cos2, xs)
	copy(inPlace, xs)
	CosInto(inPlace, inPlace)
	for i, x := range xs {
		ws, wc := math.Sincos(x)
		if !sameFloat(ws, math.Sin(x)) || !sameFloat(wc, math.Cos(x)) {
			t.Fatalf("math.Sincos(%v) = (%v, %v), math.Sin %v, math.Cos %v", x, ws, wc, math.Sin(x), math.Cos(x))
		}
		if !sameFloat(cos[i], wc) || !sameFloat(inPlace[i], wc) {
			t.Fatalf("CosInto(%v [%#x]) = %v [%#x] (in place %v), math.Cos %v [%#x]", x, math.Float64bits(x),
				cos[i], math.Float64bits(cos[i]), inPlace[i], wc, math.Float64bits(wc))
		}
		if !sameFloat(sin[i], ws) || !sameFloat(cos2[i], wc) {
			t.Fatalf("SincosInto(%v [%#x]) = (%v, %v), math.Sincos (%v, %v)", x, math.Float64bits(x), sin[i], cos2[i], ws, wc)
		}
	}
}

// withNeighbours is ±x and ±the floats on either side of x.
func withNeighbours(xs []float64, x float64) []float64 {
	for _, v := range [...]float64{math.Nextafter(x, math.Inf(-1)), x, math.Nextafter(x, math.Inf(1))} {
		xs = append(xs, v, -v)
	}
	return xs
}

func TestTrigMatchesMath(t *testing.T) {
	var xs []float64
	// Every octant boundary k·π/4 below 10⁵ with both neighbours: where the
	// quadrant, the polynomial and the signs change.
	for k := 0; k < 100000; k++ {
		xs = withNeighbours(xs, float64(k)*(math.Pi/4))
	}
	checkTrig(t, xs)

	// The boundary to the library's other reduction, and what lies beyond.
	xs = withNeighbours(xs[:0], 1<<29)
	xs = append(xs, 1<<29+1, 1e9, 1e18, math.MaxFloat64, math.SmallestNonzeroFloat64, 1e-300, -1e-300,
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN())
	checkTrig(t, xs)

	// Seeded arguments at scales 1e-4 … 1e8, both signs (the time encodings
	// see Δt·ω + b from sub-second to years), and uniform ones across the
	// whole Cody–Waite range.
	rng := NewRNG(2025)
	xs = xs[:0]
	for i := 0; i < 1200000; i++ {
		xs = append(xs, rng.NormFloat64()*math.Pow(10, float64(i%13-4)))
	}
	for i := 0; i < 200000; i++ {
		xs = append(xs, (2*rng.Float64()-1)*(1<<29))
	}
	checkTrig(t, xs)
}

// FuzzTrigMatchesMath runs its seed corpus as a plain test; under -fuzz it
// searches float64 bit patterns for one where a kernel and the library part.
func FuzzTrigMatchesMath(f *testing.F) {
	seeds := []float64{0, math.Copysign(0, -1), 1e-300, -1e-300, 1e9, math.Inf(1), math.Inf(-1), math.NaN()}
	for _, k := range []float64{1, 2, 3, 4, 7, 1000} {
		seeds = withNeighbours(seeds, k*(math.Pi/4))
	}
	seeds = withNeighbours(seeds, 1<<29)
	for _, x := range seeds {
		f.Add(x)
	}
	f.Fuzz(func(t *testing.T, x float64) {
		checkTrig(t, []float64{x})
	})
}

// BenchmarkCos times the library loop the time encodings used to run against
// the kernel, per element: on uniform arguments over many periods, where the
// library's octant branches mispredict, and on small ones (|x| < π/4, one
// octant), where they predict. 2¹⁶ arguments, because a few thousand are a
// sequence the branch predictor learns by heart.
func BenchmarkCos(b *testing.B) {
	const n = 1 << 16
	src, dst := make([]float64, n), make([]float64, n)
	perElem := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/elem")
	}
	for _, args := range []struct {
		name  string
		scale float64
	}{{"uniform", 1000}, {"small", 0.7}} {
		rng := NewRNG(9)
		for i := range src {
			src[i] = args.scale * rng.Float64()
		}
		b.Run(args.name+"/math", func(b *testing.B) {
			for it := 0; it < b.N; it++ {
				for i, x := range src {
					dst[i] = math.Cos(x)
				}
			}
			perElem(b)
		})
		b.Run(args.name+"/kernel", func(b *testing.B) {
			for it := 0; it < b.N; it++ {
				CosInto(dst, src)
			}
			perElem(b)
		})
	}
}
