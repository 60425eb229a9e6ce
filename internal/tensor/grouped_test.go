package tensor

import (
	"fmt"
	"math"
	"testing"

	"taser/internal/mathx"
)

// The straight-line scalar definitions of token mixing over every row and
// its two gradients: the oracle GroupedMatMulLeftSlotsInto and its gradient
// must match bit for bit at the rows they name. Every element is
// accumulated in the order the kernels document — forward and dSrc
// k-ascending on top of the destination (zero, resp. what dSrc holds), dW
// per group from zero and added once.

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

// TestGroupedMatMulLeftBitwiseMatchesScalar holds the slot kernels to the
// scalar oracles at the named rows, Float64bits-equal, on every tile
// implementation the CPU has, for every slot set of tokenMixSlotSets: the
// forward rows are the full product's rows, and both halves of the backward,
// accumulated onto non-zero destinations, are the full product's gradients
// under an output gradient that is zero at every unnamed row.
func TestGroupedMatMulLeftBitwiseMatchesScalar(t *testing.T) {
	defer useTile(cpuTile())
	for _, ti := range tiles {
		if !useTile(ti.kind) {
			continue // the CPU lacks this tile: products never run it here
		}
		impl := ti.name
		rng := mathx.NewRNG(77)
		for _, s := range tokenMixShapes {
			k2, group, c, b := s[0], s[1], s[2], s[3]
			w, src := Randn(k2, group, 1, rng), Randn(b*group, c, 1, rng)
			full := New(b*k2, c)
			groupedForwardOracle(full, w, src)
			for _, set := range tokenMixSlotSets(k2, b) {
				name := fmt.Sprintf("%s %dx%d weight, %d groups of %d channels, %s", impl, k2, group, b, c, set.name)
				slots := set.slots

				got, want := New(len(slots), c), New(len(slots), c)
				got.Fill(7) // the forward form overwrites
				GroupedMatMulLeftSlotsInto(got, w, src, slots)
				GatherRowsInto(want, full, slots)
				if d := bitwiseDiff(got, want); d >= 0 {
					t.Fatalf("%s: forward elem %d: got %v want %v", name, d, got.Data[d], want.Data[d])
				}

				dOut, padded := Randn(len(slots), c, 1, rng), New(b*k2, c)
				ScatterRowsInto(padded, dOut, slots)
				dW, dSrc := Randn(k2, group, 1, rng), Randn(b*group, c, 1, rng)
				wantW, wantSrc := dW.Clone(), dSrc.Clone()
				groupedGradWOracle(wantW, padded, src)
				groupedGradSrcOracle(wantSrc, w, padded, false)
				// Each half alone (the other input a constant), then both.
				onlyW, onlySrc := dW.Clone(), dSrc.Clone()
				GroupedMatMulLeftSlotsGradInto(onlyW, nil, dOut, w, src, slots)
				GroupedMatMulLeftSlotsGradInto(nil, onlySrc, dOut, w, src, slots)
				GroupedMatMulLeftSlotsGradInto(dW, dSrc, dOut, w, src, slots)
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
}

type slotSet struct {
	name  string
	slots []int32
}

// tokenMixSlotSets are the slot sets the slot kernels are held to over b
// groups of k2 output rows: every row (one run per group), runs that start
// mid-group, several runs of different lengths in one group, single-slot
// runs beside empty groups, and nothing named.
func tokenMixSlotSets(k2, b int) []slotSet {
	pick := func(keep func(g, i int) bool) []int32 {
		var slots []int32
		for g := 0; g < b; g++ {
			for i := 0; i < k2; i++ {
				if keep(g, i) {
					slots = append(slots, int32(g*k2+i))
				}
			}
		}
		return slots
	}
	return []slotSet{
		{"every row", pick(func(g, i int) bool { return true })},
		{"mid-group runs", pick(func(g, i int) bool { return i >= k2/2 })},
		{"several runs per group", pick(func(g, i int) bool { return i%6 != 4 })},
		{"single slots, empty groups", pick(func(g, i int) bool { return g%2 == 1 && i%2 == 0 })},
		{"nothing", nil},
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
	GroupedMatMulLeftSlotsGradInto(nil, dense, dOut, w, New(b*group, c), everySlot(b*k2))
	groupedGradSrcOracle(skipped, w, dOut, true)
	for i, v := range dense.Data {
		if v != skipped.Data[i] {
			t.Fatalf("elem %d: dense %v, zero-skipping %v", i, v, skipped.Data[i])
		}
	}
}

// TestGroupedMatMulLeftGradShapePanics: both slot kernels refuse a weight
// with no rows or columns, a source that is not whole groups, an output
// without one row per slot or of another width, and slots out of order,
// repeated, negative or past the groups' rows.
func TestGroupedMatMulLeftGradShapePanics(t *testing.T) {
	cases := map[string]struct {
		out, w, src *Matrix
		slots       []int32
	}{
		"src rows not a multiple of group": {New(4, 2), New(2, 2), New(5, 2), everySlot(4)},
		"out rows":                         {New(3, 2), New(2, 2), New(4, 2), everySlot(4)},
		"out cols":                         {New(4, 3), New(2, 2), New(4, 2), everySlot(4)},
		"zero-width weight":                {New(4, 2), New(2, 0), New(4, 2), everySlot(4)},
		"zero-height weight":               {New(0, 2), New(0, 2), New(4, 2), nil},
		"slots out of order":               {New(2, 2), New(2, 2), New(4, 2), []int32{2, 1}},
		"slot repeated":                    {New(2, 2), New(2, 2), New(4, 2), []int32{1, 1}},
		"negative slot":                    {New(2, 2), New(2, 2), New(4, 2), []int32{-1, 1}},
		"slot past the layout":             {New(2, 2), New(2, 2), New(4, 2), []int32{1, 4}},
	}
	for name, c := range cases {
		for form, f := range map[string]func(){
			"forward":  func() { GroupedMatMulLeftSlotsInto(c.out, c.w, c.src, c.slots) },
			"backward": func() { GroupedMatMulLeftSlotsGradInto(nil, nil, c.out, c.w, c.src, c.slots) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("%s, %s: expected a panic", name, form)
					}
				}()
				f()
			}()
		}
	}
}

// BenchmarkGroupedMatMulLeft times the two token-mixing products of a
// train-taser-tgat step (tokenUp 12×25 and tokenDown 25×12 over 56
// neighborhoods of 73 channels) with every output row named, in the three
// forms the step runs them — forward, dSrc and dW — on each tile
// implementation the CPU has (go, avx2, avx512, as in BenchmarkMatMul), next
// to BenchmarkMatMul's dense shapes. SetBytes carries the FLOP count.
func BenchmarkGroupedMatMulLeft(b *testing.B) {
	defer useTile(cpuTile())
	const groups, c = 56, 73
	for _, s := range [][2]int{{12, 25}, {25, 12}} {
		k2, group := s[0], s[1]
		rng := mathx.NewRNG(99)
		w, src := Randn(k2, group, 1, rng), Randn(groups*group, c, 1, rng)
		out, dW, dSrc := New(groups*k2, c), New(k2, group), New(groups*group, c)
		every := everySlot(groups * k2)
		forms := []struct {
			name string
			run  func()
		}{
			{"fwd", func() { GroupedMatMulLeftSlotsInto(out, w, src, every) }},
			{"dSrc", func() { GroupedMatMulLeftSlotsGradInto(nil, dSrc, out, w, src, every) }},
			{"dW", func() { GroupedMatMulLeftSlotsGradInto(dW, nil, out, w, src, every) }},
		}
		for _, f := range forms {
			for _, ti := range tiles {
				b.Run(fmt.Sprintf("%dx%d/%s/%s", k2, group, f.name, ti.name), func(b *testing.B) {
					if !useTile(ti.kind) {
						b.Skipf(lacksTile, ti.name)
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

// BenchmarkGroupedSlots times the three neighborhood reductions and the
// attention softmax at serve-cold's shapes — n = 10 slots per neighborhood,
// d = 24, 0.54 of the slots valid (sampler.filled_share), 200 neighborhoods
// (about a flush's inner layer of live targets) — reading the valid slots
// ("valid") against naming every slot of the padded layout ("every"), the
// walk the dense kernels made: zero rows there, and −1e9 logits for the
// softmax. "ScatterRows" is what the dense form paid first, once per padded
// operand: laying the valid rows out over zero rows.
func BenchmarkGroupedSlots(b *testing.B) {
	const t, n, d, fill = 200, 10, 24, 0.54
	scale := 1 / math.Sqrt(n) // TGAT's attention scale
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
	logits, biased := Randn(t, n, 1, rng), New(t, n)
	biased.Fill(-1e9)
	for _, s := range valid {
		biased.Data[s] = logits.Data[s]
	}
	scores, sum := New(t, n), New(t, d)
	b.Run("ScatterRows", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ScatterRowsInto(padded, compact, valid)
		}
	})
	for _, form := range []struct {
		name   string
		slots  []int32
		rows   *Matrix
		logits *Matrix
	}{{"valid", valid, compact, logits}, {"every", everySlot(t * n), padded, biased}} {
		for _, op := range []struct {
			name string
			run  func()
		}{
			{"GroupedScore", func() { GroupedScoreInto(scores, q, form.rows, form.slots, n, scale) }},
			{"GroupedWeightedSum", func() { GroupedWeightedSumInto(sum, w, form.rows, form.slots, n) }},
			{"GroupMean", func() { GroupMeanInto(sum, form.rows, form.slots, n) }},
			{"SoftmaxSlots", func() { SoftmaxSlotsInto(scores, form.logits, form.slots, false) }},
		} {
			b.Run(op.name+"/"+form.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					op.run()
				}
			})
		}
	}
}
