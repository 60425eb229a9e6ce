package mathx

import (
	"math"
	"testing"
)

// sameFloat is bit equality, any NaN standing for any other.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// checkTrig holds CosInto and SincosInto to the library on xs, in place and
// out of place, once as the CPU probe chose and once through the Go loops
// alone (ForceScalar), and the library to itself: CosInto ≡ SincosInto ≡
// math.Sincos ≡ (math.Sin, math.Cos). The recording pass of autograd's Cos
// takes its value from SincosInto and a forward-only pass from CosInto, so a
// disagreement anywhere along that chain moves a pinned trajectory.
func checkTrig(t testing.TB, xs []float64) {
	t.Helper()
	defer ForceScalar(false)
	n := len(xs)
	buf := make([]float64, 6*n)
	cos, sin, cos2, inPlace, sinIn, cosIn := buf[:n], buf[n:2*n], buf[2*n:3*n], buf[3*n:4*n], buf[4*n:5*n], buf[5*n:]
	for _, impl := range []string{"probed", "go"} {
		ForceScalar(impl == "go")
		CosInto(cos, xs)
		SincosInto(sin, cos2, xs)
		copy(inPlace, xs)
		CosInto(inPlace, inPlace)
		copy(cosIn, xs)
		SincosInto(sinIn, cosIn, cosIn)
		for i, x := range xs {
			ws, wc := math.Sincos(x)
			if !sameFloat(ws, math.Sin(x)) || !sameFloat(wc, math.Cos(x)) {
				t.Fatalf("math.Sincos(%v) = (%v, %v), math.Sin %v, math.Cos %v", x, ws, wc, math.Sin(x), math.Cos(x))
			}
			if !sameFloat(cos[i], wc) || !sameFloat(inPlace[i], wc) {
				t.Fatalf("%s: CosInto(%v [%#x]) at %d of %d = %v [%#x] (in place %v), math.Cos %v [%#x]", impl, x, math.Float64bits(x),
					i, n, cos[i], math.Float64bits(cos[i]), inPlace[i], wc, math.Float64bits(wc))
			}
			if !sameFloat(sin[i], ws) || !sameFloat(cos2[i], wc) || !sameFloat(sinIn[i], ws) || !sameFloat(cosIn[i], wc) {
				t.Fatalf("%s: SincosInto(%v [%#x]) at %d of %d = (%v, %v) (in place (%v, %v)), math.Sincos (%v, %v)", impl, x, math.Float64bits(x),
					i, n, sin[i], cos2[i], sinIn[i], cosIn[i], ws, wc)
			}
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
// searches float64 bit patterns for one where CosInto or SincosInto and the
// library part. One element never reaches the four-lane kernel: that is
// FuzzTrigLanes.
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

// trigEdges are arguments at which one step of the kernel decides the
// result, found with a scalar model of trigOctant (equal to math.Sincos on
// 10⁶ arguments) by changing one thing at a time and drawing arguments until
// the model parted from the library. In order: 4/π one ulp up and down, j&1
// dropped; PI4A, PI4B, PI4C one ulp up; the PI4C and PI4B steps dropped; the
// PI4C step fused; each cosine, then sine, coefficient scaled by 1 + 2⁻²⁰;
// the fourth and fifth cosine Horner steps fused, the third to fifth sine
// ones; the closing cosine and sine sums fused, their products regrouped;
// each sign rule and each polynomial pick inverted; PI4A, PI4B, PI4C one ulp
// down; 0.5 one ulp up. Then, for each constant in the order 4/π, PI4A…C,
// SIN0…5, COS0…5, the smallest power-of-two ulp offset up and down that
// 2·10⁷ draws could see: 2 and 4 for 4/π, 1 for the π/4 parts, SIN2…5 and
// COS3…5, 2⁷ for SIN1, 2¹⁵ for SIN0, 16 and 4 for COS2, 2¹² for COS1, 2²²
// and 2²⁰ for COS0. What no argument catches: the PI4A and PI4B products
// and 0.5·zz are exact, fused or not, and fusing one of the first three
// cosine or first two sine Horner steps changed no result in 10⁸.
func trigEdges() []float64 {
	var xs []float64
	for _, bits := range []uint64{
		0x41a54ab43e14308c, 0x41b699c441169240, 0x408968d777cd55b4, 0xc075bc4bc3502b84,
		0x41a3f3fbdc911664, 0x41b54613cb7c0006, 0x4050601467644404, 0x40845361c50f5621,
		0xc1b23c0f4667692a, 0xc060ca8965aced8d, 0x407e30609140f087, 0xc0465ed3e585d4af,
		0xbfe24294d29487cb, 0x408aeab1a8a2863c, 0xc08beb57792a7d55, 0xbfe650c68c255d40,
		0xbfe46894599910e2, 0x407de38c3e78ecf8, 0x40819a6deacee16c, 0x4064d4985f7ed3da,
		0x408935953c3aa60a, 0x41b8a0566fdd44be, 0xc08cfd28c884170d, 0xbfe00e2b3cab9c40,
		0xc1bec2700df0938c, 0xbfe7cbd495c54b46, 0x3fe8c39817c8f4af, 0xbfdad4d269cff99d,
		0x4051e11d3a7f61d8, 0x40898f7afab924a2, 0xc160e2ad5fda1420, 0x4089afeb959c0554,
		0x403d760ec615d2a8, 0xc0535747bc39f857, 0xc067cbb4b80936d4, 0x40827e3ffd8c0369,
		0xc082f9a6fbd119b0, 0xc1af55974c4e17ee, 0xc1bab616b60acc1c, 0xc1abba190a95f0b6,
		0x41bb60d0bab068f0, 0xc1b4e88b2ae007d2, 0xc0349a7e8527e27b, 0xc089ef9c666cccfc,
		0x41ba294830e659dc, 0xc19c6e0a4ca9ba8c, 0x41b3e1e6a1fd3098, 0xc1b068003e612ee2,
		0x3fe8ff6a47c3c70b, 0xc08884d860d81362, 0xc1b50f598d833150, 0xbfe7dee578005b3d,
		0xbfe83e47dc4e5861, 0xc152140deef03040, 0x408a15ea481ad693, 0x4136a7c394898800,
		0xc135b0d6067ba500, 0x408bd8fea6968db3, 0x4059d155c8b95634, 0xc07a4b8f86bc3880,
		0xc05178d2c5c9ba85, 0xc1b9a809cedddb27, 0xc1bf5629744ff148, 0x4051d7a70e97a8d9,
		0x3fe8b96701a7ec2c, 0xc16cff84f3f3a680, 0x3fe60d75ef7a38bc, 0x41a69bb713e5dc88,
		0x3fe7e145af3cd0d9, 0x4088909aec0ddda6, 0x41bdb15d49266c74, 0xbfe920a2381601f8,
	} {
		xs = append(xs, math.Float64frombits(bits))
	}
	return xs
}

// TestTrigLaneEdges drives the kernel's edges: every length 0…13 at every
// offset 0…3 into one backing array — tails of 0…3 elements behind 0…3
// groups, loads at every alignment — with sentinels either side of each
// output; groups holding exactly one argument the kernel leaves to the Go
// loops, in each lane, between groups it takes; and trigEdges in each lane.
func TestTrigLaneEdges(t *testing.T) {
	rng := NewRNG(26)
	back := make([]float64, 17)
	for i := range back {
		back[i] = 40 * (2*rng.Float64() - 1)
	}
	const guard = -12345.5
	for off := 0; off <= 3; off++ {
		for n := 0; n <= 13; n++ {
			x := back[off : off+n]
			checkTrig(t, x)
			c, s, c2 := make([]float64, n+2), make([]float64, n+2), make([]float64, n+2)
			for _, v := range [][]float64{c, s, c2} {
				v[0], v[n+1] = guard, guard
			}
			CosInto(c[1:n+1], x)
			SincosInto(s[1:n+1], c2[1:n+1], x)
			for _, v := range [][]float64{c, s, c2} {
				if v[0] != guard || v[n+1] != guard {
					t.Fatalf("offset %d length %d: a kernel wrote outside its output", off, n)
				}
			}
		}
	}

	// One of laneSpecials per group, in each lane.
	for _, e := range laneSpecials() {
		for lane := 0; lane < 4; lane++ {
			x := make([]float64, 13)
			copy(x, back)
			x[4+lane] = e
			checkTrig(t, x)
			x[lane], x[8+(lane+1)%4] = e, e // the first group, and the third in another lane
			checkTrig(t, x)
		}
	}

	edges := trigEdges()
	checkTrig(t, edges)
	for lane := 0; lane < 4; lane++ {
		for _, e := range edges {
			x := []float64{0.3, -1.7, 2.9, -0.05, 0.8}
			x[lane] = e
			checkTrig(t, x)
		}
	}
}

// octantSeeds are the floats either side of k·π/4 for a few k, both signs:
// where the quadrant, the polynomial and the signs change.
func octantSeeds() []float64 {
	var xs []float64
	for _, k := range []float64{1, 2, 3, 4, 5, 6, 7, 8, 1000, 1 << 20} {
		xs = withNeighbours(xs, k*(math.Pi/4))
	}
	return xs
}

// laneSpecials are the arguments either side of the kernel's range test:
// NaN, ±Inf and ±2²⁹ upwards go to the Go loops, −0 and the last float
// below 2²⁹ do not.
func laneSpecials() []float64 {
	return []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1 << 29, -(1 << 29), 1e18, -1e18,
		math.Copysign(0, -1), math.Nextafter(1<<29, 0)}
}

// FuzzTrigLanes runs one four-element group — the kernel's unit — through
// CosInto and SincosInto. Its seed corpus places each octant neighbour, each
// of trigEdges and each of laneSpecials in every lane among ordinary
// arguments.
func FuzzTrigLanes(f *testing.F) {
	fill := [4]float64{0.5, -2.25, 1e3, 7e-3}
	seeds := append(append(octantSeeds(), trigEdges()...), laneSpecials()...)
	for _, x := range seeds {
		for lane := 0; lane < 4; lane++ {
			g := fill
			g[lane] = x
			f.Add(g[0], g[1], g[2], g[3])
		}
	}
	f.Fuzz(func(t *testing.T, a, b, c, d float64) {
		checkTrig(t, []float64{a, b, c, d})
	})
}

// BenchmarkCos times the library loop the time encodings used to run, the Go
// loops CosInto and SincosInto are defined by (ForceScalar) and the kernel,
// per element: on uniform arguments over many periods, where the library's
// octant branches mispredict, and on small ones (|x| < π/4, one octant),
// where they predict. 2¹⁶ arguments, because a few thousand are a sequence
// the branch predictor learns by heart.
func BenchmarkCos(b *testing.B) {
	const n = 1 << 16
	src, dst, sin := make([]float64, n), make([]float64, n), make([]float64, n)
	defer ForceScalar(false)
	for _, args := range []struct {
		name  string
		scale float64
	}{{"uniform", 1000}, {"small", 0.7}} {
		rng := NewRNG(9)
		for i := range src {
			src[i] = args.scale * rng.Float64()
		}
		for _, impl := range []string{"math", "go", "kernel"} {
			if _, kernel := ForceScalar(impl != "kernel"); !kernel && impl == "kernel" {
				continue // no AVX2: there is one implementation
			}
			for _, fn := range []string{"cos", "sincos"} {
				b.Run(args.name+"/"+fn+"/"+impl, func(b *testing.B) {
					for it := 0; it < b.N; it++ {
						switch {
						case impl == "math" && fn == "cos":
							for i, x := range src {
								dst[i] = math.Cos(x)
							}
						case impl == "math":
							for i, x := range src {
								sin[i], dst[i] = math.Sincos(x)
							}
						case fn == "cos":
							CosInto(dst, src)
						default:
							SincosInto(sin, dst, src)
						}
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/elem")
				})
			}
		}
	}
}
