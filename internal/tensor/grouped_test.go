package tensor

import (
	"fmt"
	"testing"

	"taser/internal/mathx"
)

// The straight-line scalar definitions of token mixing and its two
// gradients: the oracle the tile drivers must match bit for bit. Every
// element is accumulated in the order the kernels document — forward and
// dSrc k-ascending on top of the destination (zero, resp. what dSrc holds),
// dW per group from zero and added once.

func groupedForwardOracle(dst, w, src *Matrix) {
	k2, group, c := w.Rows, w.Cols, src.Cols
	for g := 0; g < src.Rows/group; g++ {
		for i := 0; i < k2; i++ {
			for j := 0; j < c; j++ {
				var s float64
				for k := 0; k < group; k++ {
					s += w.At(i, k) * src.At(g*group+k, j)
				}
				dst.Set(g*k2+i, j, s)
			}
		}
	}
}

// groupedGradSrcOracle takes skipZeroW to reproduce the loop the tile
// replaced, which stepped over exact-zero weights.
func groupedGradSrcOracle(dSrc, w, dOut *Matrix, skipZeroW bool) {
	k2, group, c := w.Rows, w.Cols, dSrc.Cols
	for g := 0; g < dSrc.Rows/group; g++ {
		for i := 0; i < k2; i++ {
			for k := 0; k < group; k++ {
				wv := w.At(i, k)
				if skipZeroW && wv == 0 {
					continue
				}
				for j := 0; j < c; j++ {
					dSrc.Data[(g*group+k)*c+j] += wv * dOut.At(g*k2+i, j)
				}
			}
		}
	}
}

func groupedGradWOracle(dW, dOut, src *Matrix) {
	k2, group, c := dW.Rows, dW.Cols, src.Cols
	for g := 0; g < src.Rows/group; g++ {
		for i := 0; i < k2; i++ {
			for k := 0; k < group; k++ {
				var dot float64
				for j := 0; j < c; j++ {
					dot += dOut.At(g*k2+i, j) * src.At(g*group+k, j)
				}
				dW.Data[i*group+k] += dot
			}
		}
	}
}

// tokenMixShapes are {k2, group, c, b}: the adaptive sampler's two mixing
// products on train-taser-tgat (M = 25 candidates, 12 hidden tokens, d_enc =
// 73 channels — not a multiple of 8, so the column remainder tile runs), the
// same with a row remainder, and shapes no tile fits: k2 < 4 (forward and
// dW), c < 8 (forward and dSrc), group < 8 (dW) and group < 4 (dSrc).
var tokenMixShapes = [][4]int{
	{12, 25, 73, 7}, {25, 12, 73, 7}, {13, 9, 20, 3}, {8, 8, 8, 2},
	{3, 25, 73, 2}, {12, 25, 5, 2}, {12, 7, 16, 3}, {12, 3, 16, 3}, {1, 1, 1, 4}, {4, 8, 0, 2},
}

// TestGroupedMatMulLeftBitwiseMatchesScalar holds the forward product and
// both halves of the backward kernel to the scalar oracle, Float64bits-equal, on the
// assembly tile and on its Go twin, accumulating the gradients onto non-zero
// destinations.
func TestGroupedMatMulLeftBitwiseMatchesScalar(t *testing.T) {
	defer forceGoTile(false)
	for _, impl := range []string{"asm", "go"} {
		if asm := forceGoTile(impl == "go"); !asm && impl == "asm" {
			continue // no AVX2 on this CPU: the "go" round covers the only path
		}
		rng := mathx.NewRNG(77)
		for _, s := range tokenMixShapes {
			k2, group, c, b := s[0], s[1], s[2], s[3]
			name := fmt.Sprintf("%s %dx%d weight, %d groups of %d channels", impl, k2, group, b, c)
			w, src, dOut := Randn(k2, group, 1, rng), Randn(b*group, c, 1, rng), Randn(b*k2, c, 1, rng)

			got, want := New(b*k2, c), New(b*k2, c)
			got.Fill(7) // the forward form overwrites
			GroupedMatMulLeftInto(got, w, src, group)
			groupedForwardOracle(want, w, src)
			if d := bitwiseDiff(got, want); d >= 0 {
				t.Fatalf("%s: forward elem %d: got %v want %v", name, d, got.Data[d], want.Data[d])
			}

			dW, dSrc := Randn(k2, group, 1, rng), Randn(b*group, c, 1, rng)
			wantW, wantSrc := dW.Clone(), dSrc.Clone()
			groupedGradWOracle(wantW, dOut, src)
			groupedGradSrcOracle(wantSrc, w, dOut, false)
			// Each half alone (the other input a constant), then both.
			onlyW, onlySrc := dW.Clone(), dSrc.Clone()
			GroupedMatMulLeftGradInto(onlyW, nil, dOut, w, src)
			GroupedMatMulLeftGradInto(nil, onlySrc, dOut, w, src)
			GroupedMatMulLeftGradInto(dW, dSrc, dOut, w, src)
			for _, m := range [][2]*Matrix{{onlyW, wantW}, {dW, wantW}} {
				if d := bitwiseDiff(m[0], m[1]); d >= 0 {
					t.Fatalf("%s: dW elem %d: got %v want %v", name, d, m[0].Data[d], m[1].Data[d])
				}
			}
			for _, m := range [][2]*Matrix{{onlySrc, wantSrc}, {dSrc, wantSrc}} {
				if d := bitwiseDiff(m[0], m[1]); d >= 0 {
					t.Fatalf("%s: dSrc elem %d: got %v want %v", name, d, m[0].Data[d], m[1].Data[d])
				}
			}
		}
	}
}

// TestGroupedGradSrcWithoutZeroSkip: the scalar loop the tile replaced
// skipped exact-zero weights; the dense form multiplies them through. For
// finite gradients that adds ±0 to the sum, which can change the result only
// where the sum is itself a zero — in its sign (-0 + +0 = +0). So the two
// agree as numbers everywhere, which is what is asserted here; bit for bit
// they agree wherever the gradient is non-zero.
func TestGroupedGradSrcWithoutZeroSkip(t *testing.T) {
	rng := mathx.NewRNG(78)
	const k2, group, c, b = 12, 25, 73, 3
	w, dOut := withZeros(Randn(k2, group, 1, rng), 0.3, rng), withZeros(Randn(b*k2, c, 1, rng), 0.3, rng)
	dense, skipped := New(b*group, c), New(b*group, c)
	GroupedMatMulLeftGradInto(nil, dense, dOut, w, New(b*group, c))
	groupedGradSrcOracle(skipped, w, dOut, true)
	for i, v := range dense.Data {
		if v != skipped.Data[i] {
			t.Fatalf("elem %d: dense %v, zero-skipping %v", i, v, skipped.Data[i])
		}
	}
}

func TestGroupedMatMulLeftGradShapePanics(t *testing.T) {
	for name, f := range map[string]func(){
		"src rows not a multiple of group": func() { GroupedMatMulLeftGradInto(nil, nil, New(4, 2), New(2, 2), New(5, 2)) },
		"dOut rows":                        func() { GroupedMatMulLeftGradInto(nil, nil, New(4, 2), New(3, 2), New(4, 2)) },
		"dOut cols":                        func() { GroupedMatMulLeftGradInto(nil, nil, New(4, 3), New(2, 2), New(4, 2)) },
		"zero-width weight":                func() { GroupedMatMulLeftGradInto(nil, nil, New(4, 2), New(2, 0), New(4, 2)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected a panic", name)
				}
			}()
			f()
		}()
	}
}

// BenchmarkGroupedMatMulLeft times the two token-mixing products of a
// train-taser-tgat step (tokenUp 12×25 and tokenDown 25×12 over 56
// neighborhoods of 73 channels) in the three forms the step runs them —
// forward, dSrc and dW — on the assembly tile and on its Go twin, next to
// BenchmarkMatMul's dense shapes. SetBytes carries the FLOP count.
func BenchmarkGroupedMatMulLeft(b *testing.B) {
	defer forceGoTile(false)
	const groups, c = 56, 73
	for _, s := range [][2]int{{12, 25}, {25, 12}} {
		k2, group := s[0], s[1]
		rng := mathx.NewRNG(99)
		w, src := Randn(k2, group, 1, rng), Randn(groups*group, c, 1, rng)
		out, dW, dSrc := New(groups*k2, c), New(k2, group), New(groups*group, c)
		forms := []struct {
			name string
			run  func()
		}{
			{"fwd", func() { GroupedMatMulLeftInto(out, w, src, group) }},
			{"dSrc", func() { GroupedMatMulLeftGradInto(nil, dSrc, out, w, src) }},
			{"dW", func() { GroupedMatMulLeftGradInto(dW, nil, out, w, src) }},
		}
		for _, f := range forms {
			for _, impl := range []string{"asm", "go"} {
				b.Run(fmt.Sprintf("%dx%d/%s/%s", k2, group, f.name, impl), func(b *testing.B) {
					if asm := forceGoTile(impl == "go"); !asm && impl == "asm" {
						b.Skip("no AVX2 on this CPU: every product runs the Go twin")
					}
					b.SetBytes(int64(2 * groups * k2 * group * c))
					for i := 0; i < b.N; i++ {
						f.run()
					}
				})
			}
		}
	}
}

// BenchmarkGroupedSlots times the three neighborhood reductions at
// serve-cold's shapes — n = 10 slots per neighborhood, d = 24, 0.54 of the
// slots valid (sampler.filled_share), 200 neighborhoods (about a flush's
// inner layer of live targets) — reading the valid slots' rows ("valid")
// against naming every slot of the zero-padded layout ("every"), the walk the
// dense kernels made. "ScatterRows" is what the dense form paid first, once
// per padded operand: laying the valid rows out over zero rows.
func BenchmarkGroupedSlots(b *testing.B) {
	const t, n, d, fill = 200, 10, 24, 0.54
	rng := mathx.NewRNG(29)
	var valid []int32
	for s := 0; s < t*n; s++ {
		if rng.Float64() < fill {
			valid = append(valid, int32(s))
		}
	}
	q, w := Randn(t, d, 1, rng), Randn(t, n, 1, rng)
	compact, padded := Randn(len(valid), d, 1, rng), New(t*n, d)
	ScatterRowsInto(padded, compact, valid)
	scores, sum := New(t, n), New(t, d)
	b.Run("ScatterRows", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ScatterRowsInto(padded, compact, valid)
		}
	})
	for _, form := range []struct {
		name  string
		slots []int32
		rows  *Matrix
	}{{"valid", valid, compact}, {"every", everySlot(t * n), padded}} {
		for _, op := range []struct {
			name string
			run  func()
		}{
			{"GroupedScore", func() { GroupedScoreInto(scores, q, form.rows, form.slots, n) }},
			{"GroupedWeightedSum", func() { GroupedWeightedSumInto(sum, w, form.rows, form.slots, n) }},
			{"GroupMean", func() { GroupMeanInto(sum, form.rows, form.slots, n) }},
		} {
			b.Run(op.name+"/"+form.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					op.run()
				}
			})
		}
	}
}
