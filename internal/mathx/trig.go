package mathx

import "math"

// CosInto and SincosInto are math.Cos and math.Sincos over a slice, bit for
// bit, with the per-element branches taken out. The library picks one of two
// polynomials and a sign from the argument's octant, and on a column of
// unrelated arguments (Δt·ω + b under the time encodings) those branches
// mispredict on nearly every element. Here the arithmetic is the library's,
// operation for operation — the same Cody–Waite reduction against π/4 in
// three parts, the same two degree-6 polynomials, written as the same
// expressions so a compiler that fuses x*y+z fuses both alike — but both
// polynomials are evaluated for every element and the octant selects between
// their bit patterns with an integer mask. The one branch left goes to the
// library itself, for the arguments whose reduction is not this one:
// |x| ≥ 2²⁹ (Payne–Hanek), ±Inf and NaN. TestTrigMatchesMath and
// FuzzTrigMatchesMath hold the equality; a Go release that changes math.cos
// fails there.

const (
	trigReduceThreshold = 1 << 29 // math's reduceThreshold

	pi4A = 7.85398125648498535156e-1  // 0x3fe921fb40000000, π/4 split into three parts
	pi4B = 3.77489470793079817668e-8  // 0x3e64442d00000000
	pi4C = 2.69515142907905952645e-15 // 0x3ce8469898cc5170

	signBit = 1 << 63
)

// math's _sin and _cos coefficients (Cephes).
const (
	sin0 = 1.58962301576546568060e-10 // 0x3de5d8fd1fd19ccd
	sin1 = -2.50507477628578072866e-8 // 0xbe5ae5e5a9291f5d
	sin2 = 2.75573136213857245213e-6  // 0x3ec71de3567d48a1
	sin3 = -1.98412698295895385996e-4 // 0xbf2a01a019bfdf03
	sin4 = 8.33333333332211858878e-3  // 0x3f8111111110f7d0
	sin5 = -1.66666666666666307295e-1 // 0xbfc5555555555548

	cos0 = -1.13585365213876817300e-11 // 0xbda8fa49a0861a9b
	cos1 = 2.08757008419747316778e-9   // 0x3e21ee9d7b4e3f05
	cos2 = -2.75573141792967388112e-7  // 0xbe927e4f7eac4bc6
	cos3 = 2.48015872888517045348e-5   // 0x3efa01a019c844f5
	cos4 = -1.38888888888730564116e-3  // 0xbf56c16c16c14f91
	cos5 = 4.16666666666665929218e-2   // 0x3fa555555555554b
)

// trigOctant reduces 0 ≤ x < 2²⁹ to z in [−π/4, π/4] and returns it with
// both polynomials' bit patterns at z and the quadrant q = 0..3 (x lies
// within π/4 of q·π/2, modulo 2π). The conversions go through int64: x·4/π
// is below 2³⁰, where that is the library's uint64 conversion without the
// range test uint64 compiles to.
func trigOctant(x float64) (sinBits, cosBits, q uint64) {
	j := int64(x * (4 / math.Pi))
	j += j & 1 // map zeros to origin
	y := float64(j)
	z := ((x - y*pi4A) - y*pi4B) - y*pi4C
	zz := z * z
	c := 1.0 - 0.5*zz + zz*zz*((((((cos0*zz)+cos1)*zz+cos2)*zz+cos3)*zz+cos4)*zz+cos5)
	s := z + z*zz*((((((sin0*zz)+sin1)*zz+sin2)*zz+sin3)*zz+sin4)*zz+sin5)
	return math.Float64bits(s), math.Float64bits(c), uint64(j>>1) & 3
}

// CosInto writes cos(src[i]) into dst[i]; dst and src have equal length and
// may be the same slice. Where the CPU allows, whole groups of four go
// through a kernel that returns the same bits (cos_amd64.go), and the rest —
// or everything — through cosGo.
func CosInto(dst, src []float64) {
	dst = dst[:len(src)]
	i := trigLanes(dst, nil, src)
	cosGo(dst[i:], src[i:])
}

// SincosInto writes sin(src[i]) into sin[i] and cos(src[i]) into cos[i]; the
// three slices have equal length.
func SincosInto(sin, cos, src []float64) {
	sin, cos = sin[:len(src)], cos[:len(src)]
	i := trigLanes(cos, sin, src)
	sincosGo(sin[i:], cos[i:], src[i:])
}

// cosGo is CosInto's definition, one element at a time.
func cosGo(dst, src []float64) {
	dst = dst[:len(src)]
	for i, x := range src {
		ax := math.Abs(x)
		if !(ax < trigReduceThreshold) { // also ±Inf and NaN
			dst[i] = math.Cos(x)
			continue
		}
		s, c, q := trigOctant(ax)
		// Odd quadrants take the sine polynomial; quadrants 1 and 2 negate.
		pick := -(q & 1)
		dst[i] = math.Float64frombits((s&pick | c&^pick) ^ (q>>1^q&1)<<63)
	}
}

// sincosGo is SincosInto's definition, one element at a time.
func sincosGo(sin, cos, src []float64) {
	sin, cos = sin[:len(src)], cos[:len(src)]
	for i, x := range src {
		ax := math.Abs(x)
		if !(ax < trigReduceThreshold) {
			sin[i], cos[i] = math.Sincos(x)
			continue
		}
		s, c, q := trigOctant(ax)
		pick := -(q & 1)
		// sin is odd in x and negates in quadrants 2 and 3; ±0 keeps its sign
		// because the sign comes from x's bit, not from a comparison.
		sin[i] = math.Float64frombits((c&pick | s&^pick) ^ (q>>1<<63 ^ math.Float64bits(x)&signBit))
		cos[i] = math.Float64frombits((s&pick | c&^pick) ^ (q>>1^q&1)<<63)
	}
}
