package tensor

import (
	"fmt"
	"math"
	"testing"

	"taser/internal/mathx"
)

// spice overwrites about a tenth of s with the values rounding and special-
// case handling could disagree on: infinities, NaN, negative zero, the
// smallest denormal, the largest denormal and magnitudes whose products
// overflow or underflow.
func spice(s []float64, rng *mathx.RNG) {
	special := []float64{
		math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(0, -1), 0,
		5e-324, -5e-324, 2.225073858507201e-308, 1e308, -1e308, 1e-200, 3e-160,
	}
	for i := range s {
		if rng.Intn(10) == 0 {
			s[i] = special[rng.Intn(len(special))]
		}
	}
}

// asmTiles are the assembly routines behind tile, with the kind each is.
var asmTiles = []struct {
	name string
	kind tileKind
	run  func(dst *float64, ldd int, a *float64, lane, kstep int, b *float64, ldb, k, blocks int, bias *float64, mode int)
}{{"avx2", avx2Tile, tileAVX2}, {"avx512", avx512Tile, tileAVX512}}

// TestTileAsmMatchesGoBitwise calls each assembly tile the CPU has and the Go
// twin directly on the same operands — random strides in both lane layouts,
// all three init modes, with and without a bias, panels of 1–4 blocks (so
// tileAVX512's pair loop runs with and without its odd tail), depths from 0
// up, inputs salted with ±Inf, NaN, −0 and denormals — and requires
// bitwise-equal output (NaN equal to NaN: which payload survives is the
// hardware's choice).
func TestTileAsmMatchesGoBitwise(t *testing.T) {
	for _, at := range asmTiles {
		t.Run(at.name, func(t *testing.T) {
			if at.kind > cpuTile() {
				t.Skipf(lacksTile, at.name)
			}
			rng := mathx.NewRNG(41)
			for ci, tc := range randomTileCases(rng, 960) {
				nd, na, nb, nbias := tc.lens()
				// The routine takes pointers; at depth 0 it must not follow a or b.
				a, b, bias := make([]float64, max(na, 1)), make([]float64, max(nb, 1)), make([]float64, nbias)
				init := make([]float64, nd)
				for _, s := range [][]float64{a, b, bias, init} {
					for i := range s {
						s[i] = rng.NormFloat64()
					}
					if ci/24%2 == 1 { // every mode × bias × blocks combination, salted and not
						spice(s, rng)
					}
				}
				var pb *float64
				if tc.bias {
					pb = &bias[0]
				}
				viaAsm := append([]float64(nil), init...)
				viaGo := append([]float64(nil), init...)
				at.run(&viaAsm[0], tc.ldd, &a[0], tc.lane, tc.kstep, &b[0], tc.ldb, tc.k, tc.blocks, pb, int(tc.mode))
				tileGo(viaGo, tc.ldd, a, tc.lane, tc.kstep, b, tc.ldb, tc.k, tc.blocks, orNil(bias, tc.bias), tc.mode)
				if i := sameBits(viaAsm, viaGo); i >= 0 {
					t.Fatalf("%+v: dst[%d]: %s %v (%#x) vs Go %v (%#x)", tc, i, at.name,
						viaAsm[i], math.Float64bits(viaAsm[i]), viaGo[i], math.Float64bits(viaGo[i]))
				}
			}
		})
	}
}

// TestMatMulWithoutAVX2MatchesWith runs every entry point on every tile
// implementation the CPU has, on the shapes a TASER step and a serve-cold
// flush issue (the forward also as a linear layer, with its bias): every pair
// of implementations must give bitwise-identical products, so which CPU a
// model trained on is invisible in its weights.
func TestMatMulWithoutAVX2MatchesWith(t *testing.T) {
	defer useTile(cpuTile())
	rng := mathx.NewRNG(42)
	for _, s := range [][3]int{{1389, 73, 73}, {550, 48, 24}, {733, 72, 24}, {1389, 105, 16}, {1056, 24, 24}, {1389, 32, 16}, {37, 29, 19}, {873, 1, 16}} {
		m, k, n := s[0], s[1], s[2]
		a := Randn(m, k, 1, rng)
		b := Randn(k, n, 1, rng)
		bt := Randn(n, k, 1, rng)
		wide := Randn(m, n, 1, rng)
		bias := Randn(1, n, 1, rng).Data
		run := func() [4]*Matrix {
			r := [4]*Matrix{New(m, n), Randn(m, n, 1, mathx.NewRNG(5)), Randn(k, n, 1, mathx.NewRNG(6)), New(m, n)}
			MatMulInto(r[0], a, b)
			MatMulTransBAddInto(r[1], a, bt)
			MatMulTransAInto(r[2], a, wide)
			MatMulPartsInto(r[3], b, []*Matrix{a}, bias)
			return r
		}
		got := make([][4]*Matrix, len(tiles))
		for i, ti := range tiles {
			if useTile(ti.kind) {
				got[i] = run()
			}
		}
		for i := range tiles {
			for j := i + 1; j < len(tiles); j++ {
				t.Run(fmt.Sprintf("%dx%dx%d/%s-%s", m, k, n, tiles[i].name, tiles[j].name), func(t *testing.T) {
					if tiles[j].kind > cpuTile() {
						t.Skipf(lacksTile, tiles[j].name)
					}
					for e, name := range []string{"MatMulInto", "MatMulTransBAddInto", "MatMulTransAInto", "MatMulPartsInto with a bias"} {
						if d := bitwiseDiff(got[i][e], got[j][e]); d >= 0 {
							t.Fatalf("%s: elem %d differs", name, d)
						}
					}
				})
			}
		}
	}
}
