package nn

import (
	"math"
	"testing"

	"taser/internal/autograd"
	"taser/internal/mathx"
	"taser/internal/tensor"
)

func TestLinearShapesAndParams(t *testing.T) {
	rng := mathx.NewRNG(1)
	l := NewLinear(4, 3, rng)
	g := autograd.New()
	x := autograd.NewConst(tensor.Randn(5, 4, 1, rng))
	y := l.Apply(g, x)
	if y.Rows() != 5 || y.Cols() != 3 {
		t.Fatalf("linear output %dx%d", y.Rows(), y.Cols())
	}
	if len(l.Params()) != 2 {
		t.Fatal("linear must expose W and B")
	}
}

func TestLinearLearnsIdentity(t *testing.T) {
	// A single linear layer must fit y = 2x + 1 quickly.
	rng := mathx.NewRNG(2)
	l := NewLinear(1, 1, rng)
	opt := NewAdam(l.Params(), 0.05)
	var loss float64
	for iter := 0; iter < 400; iter++ {
		g := autograd.New()
		xs := tensor.Randn(16, 1, 1, rng)
		x := autograd.NewConst(xs)
		pred := l.Apply(g, x)
		negTarget, mean := tensor.New(16, 1), tensor.New(16, 1)
		for i := 0; i < 16; i++ {
			negTarget.Data[i] = -(2*xs.Data[i] + 1)
		}
		mean.Fill(1.0 / 16)
		diff := g.Add(pred, autograd.NewConst(negTarget))
		// Each row's diff·diff, the dot product of a one-slot neighborhood.
		lossVar := g.WeightedSumConst(g.GroupedScore(diff, diff, everyRow(16), 1, 1), mean)
		loss = lossVar.Val.Data[0]
		g.Backward(lossVar)
		opt.Step()
		opt.ZeroGrad()
	}
	if loss > 1e-3 {
		t.Fatalf("linear failed to fit affine map, loss %v", loss)
	}
	if math.Abs(l.W.Val.Data[0]-2) > 0.1 || math.Abs(l.B.Val.Data[0]-1) > 0.1 {
		t.Fatalf("learned W=%v B=%v want 2, 1", l.W.Val.Data[0], l.B.Val.Data[0])
	}
}

func TestLayerNormOutputStats(t *testing.T) {
	rng := mathx.NewRNG(3)
	ln := NewLayerNorm(8)
	g := autograd.New()
	x := autograd.NewConst(tensor.Randn(4, 8, 5, rng))
	y := ln.Apply(g, x)
	for i := 0; i < 4; i++ {
		var mean float64
		for _, v := range y.Val.Row(i) {
			mean += v
		}
		mean /= 8
		if math.Abs(mean) > 1e-9 {
			t.Fatalf("row %d mean %v", i, mean)
		}
	}
}

func TestMLPShapes(t *testing.T) {
	rng := mathx.NewRNG(4)
	m := NewMLP(6, 12, 3, rng)
	g := autograd.New()
	y := m.Apply(g, autograd.NewConst(tensor.Randn(7, 6, 1, rng)))
	if y.Rows() != 7 || y.Cols() != 3 {
		t.Fatalf("mlp output %dx%d", y.Rows(), y.Cols())
	}
	if len(m.Params()) != 4 {
		t.Fatal("mlp params")
	}
}

// everyRow lists all n rows as valid tokens.
func everyRow(n int) []int32 {
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	return idx
}

func TestMixerBlockShapePreserved(t *testing.T) {
	rng := mathx.NewRNG(5)
	const b, k, c = 3, 5, 8
	mix := NewMixerBlock(k, c, 0, 0, rng)
	g := autograd.New()
	x := autograd.NewConst(tensor.Randn(b*k, c, 1, rng))
	y := mix.Apply(g, x, everyRow(b*k), b*k)
	if y.Rows() != b*k || y.Cols() != c {
		t.Fatalf("mixer output %dx%d want %dx%d", y.Rows(), y.Cols(), b*k, c)
	}
}

// TestMixerBlockReturnsValidRowsOnly: given only the valid tokens' rows
// (padding tokens are zero rows of the layout) Apply hands back exactly the
// valid rows of the full-layout result, in order.
func TestMixerBlockReturnsValidRowsOnly(t *testing.T) {
	rng := mathx.NewRNG(8)
	const b, k, c = 2, 4, 6
	mix := NewMixerBlock(k, c, 0, 0, rng)
	x := tensor.Randn(b*k, c, 1, rng)
	valid := []int32{0, 2, 3, 5}
	keep := map[int32]bool{}
	for _, r := range valid {
		keep[r] = true
	}
	for r := 0; r < b*k; r++ {
		if !keep[int32(r)] {
			for j := range x.Row(r) {
				x.Row(r)[j] = 0
			}
		}
	}
	full := mix.Apply(autograd.New(), autograd.NewConst(x), everyRow(b*k), b*k).Val
	compact := tensor.New(len(valid), c)
	tensor.GatherRowsInto(compact, x, valid)
	got := mix.Apply(autograd.New(), autograd.NewConst(compact), valid, b*k).Val
	if got.Rows != len(valid) {
		t.Fatalf("%d rows for %d valid tokens", got.Rows, len(valid))
	}
	for i, r := range valid {
		for j, v := range got.Row(i) {
			if v != full.At(int(r), j) {
				t.Fatalf("valid row %d differs from the full layout's row %d", i, r)
			}
		}
	}
}

func TestMixerBlockMixesAcrossTokens(t *testing.T) {
	// Changing one token must influence other tokens of the SAME group and
	// no token of a different group.
	rng := mathx.NewRNG(6)
	const b, k, c = 2, 4, 6
	mix := NewMixerBlock(k, c, 0, 0, rng)
	base := tensor.Randn(b*k, c, 1, rng)
	y0 := mix.Apply(autograd.New(), autograd.NewConst(base.Clone()), everyRow(b*k), b*k).Val.Clone()
	perturbed := base.Clone()
	perturbed.Set(0, 0, perturbed.At(0, 0)+1) // token 0 of group 0
	y1 := mix.Apply(autograd.New(), autograd.NewConst(perturbed), everyRow(b*k), b*k).Val

	groupChanged := false
	for j := 0; j < c; j++ {
		if math.Abs(y1.At(1, j)-y0.At(1, j)) > 1e-9 { // token 1 of group 0
			groupChanged = true
		}
	}
	if !groupChanged {
		t.Fatal("mixer must propagate information across tokens in a group")
	}
	for r := k; r < 2*k; r++ { // group 1 untouched
		for j := 0; j < c; j++ {
			if y1.At(r, j) != y0.At(r, j) {
				t.Fatal("mixer must not leak across groups")
			}
		}
	}
}

func TestMixerGradFlowsToAllParams(t *testing.T) {
	rng := mathx.NewRNG(7)
	const b, k, c = 2, 3, 4
	mix := NewMixerBlock(k, c, 0, 0, rng)
	g := autograd.New()
	x := autograd.NewConst(tensor.Randn(b*k, c, 1, rng))
	coef := tensor.New(b*k, c)
	for i := range coef.Data {
		coef.Data[i] = math.Sin(float64(i + 1))
	}
	g.Backward(g.WeightedSumConst(mix.Apply(g, x, everyRow(b*k), b*k), coef))
	for i, p := range mix.Params() {
		if p.Grad.MaxAbs() == 0 {
			t.Fatalf("param %d received no gradient", i)
		}
	}
}

// paddedMixerApply is MixerBlock.Apply as the padded composition it
// replaces: x scattered into the slots×C layout with zero rows at padding,
// token LayerNorm and both token products over every row (every output row
// named), the residual over every row, then the valid rows gathered for
// channel mixing.
func paddedMixerApply(m *MixerBlock, g *autograd.Graph, x *autograd.Var, valid []int32, slots int) *autograd.Var {
	xp := g.ScatterRows(x, valid, slots)
	h := m.normToken.Apply(g, xp)
	h = g.GELU(g.GroupedMatMulLeftSlots(m.tokenUp, h, g.RowRange(slots/m.tokenUp.Cols()*m.tokenUp.Rows())))
	h = g.GroupedMatMulLeftSlots(m.tokenDown, h, g.RowRange(slots))
	x = g.GatherRows(g.Add(xp, h), valid)
	return g.Add(x, m.channelMLP.Apply(g, m.normChannel.Apply(g, x)))
}

// TestMixerBlockValidRowsMatchPaddedComposition: Apply's token mixing at
// valid rows (one LayerNorm over the named rows, tokenDown at the valid rows
// only, the residual over them) gives bitwise the padded composition's
// output rows, input gradient and every parameter gradient — on the
// sampler's shape (K = 25, tokenDown a tile product) and the backbone's
// (K = 10, a scalar one), with valid sets that are prefixes, not prefixes,
// split into several runs, an empty group and a full group.
func TestMixerBlockValidRowsMatchPaddedComposition(t *testing.T) {
	for _, tc := range []struct {
		name     string
		k, c, ch int
		valid    []int32
	}{
		{"prefixes", 10, 8, 16, []int32{0, 1, 2, 3, 10, 20, 21, 22, 23, 24, 25, 26}},
		{"not prefixes, empty group, full group", 10, 8, 16,
			[]int32{2, 3, 5, 6, 7, 9, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 31, 39}},
		{"sampler shape", 25, 12, 12, []int32{0, 1, 2, 3, 4, 5, 30, 31, 32, 33, 34, 35, 36, 37, 40, 41, 42, 43, 44, 45, 46, 47, 48, 49, 60, 74}},
		{"sampler shape, full and empty", 25, 12, 12, everyRow(25)},
		{"nothing valid", 10, 8, 16, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const b = 4
			slots := b * tc.k
			rng := mathx.NewRNG(uint64(len(tc.valid)) + 3)
			mix := NewMixerBlock(tc.k, tc.c, 0, tc.ch, rng)
			x := autograd.NewParam(tensor.Randn(len(tc.valid), tc.c, 1, rng))
			for _, p := range mix.Params() {
				for i := range p.Val.Data { // gain and bias away from 1 and 0
					p.Val.Data[i] += 0.1 * rng.NormFloat64()
				}
			}
			coef := tensor.Randn(len(tc.valid), tc.c, 1, rng)
			run := func(apply func(*MixerBlock, *autograd.Graph, *autograd.Var, []int32, int) *autograd.Var) (*tensor.Matrix, [][]float64) {
				params := append(mix.Params(), x)
				for _, p := range params {
					p.Grad.Zero()
				}
				g := autograd.New()
				y := apply(mix, g, x, tc.valid, slots)
				g.Backward(g.WeightedSumConst(y, coef))
				grads := make([][]float64, len(params))
				for i, p := range params {
					grads[i] = append([]float64(nil), p.Grad.Data...)
				}
				return y.Val, grads
			}
			got, gotGrads := run((*MixerBlock).Apply)
			want, wantGrads := run(paddedMixerApply)
			if got.Rows != len(tc.valid) {
				t.Fatalf("%d rows for %d valid tokens", got.Rows, len(tc.valid))
			}
			for i, v := range want.Data {
				if math.Float64bits(got.Data[i]) != math.Float64bits(v) {
					t.Fatalf("output element %d: %v, padded composition %v", i, got.Data[i], v)
				}
			}
			for p, w := range wantGrads {
				for i, v := range w {
					if math.Float64bits(gotGrads[p][i]) != math.Float64bits(v) {
						t.Fatalf("gradient of parameter %d (the last is the input), element %d: %v, padded composition %v", p, i, gotGrads[p][i], v)
					}
				}
			}
		})
	}
}

// TestMixerBlockSteadyStateAllocFree: on a reused arena graph a warm
// valid-row mixer pass, forward and backward, allocates nothing (the
// sampler's shape: 32 groups of 25 tokens, 12 channels, about half valid in
// runs that do and do not start a group).
func TestMixerBlockSteadyStateAllocFree(t *testing.T) {
	const b, k, c = 32, 25, 12
	rng := mathx.NewRNG(12)
	mix := NewMixerBlock(k, c, 0, c, rng)
	var valid []int32
	for s := int32(0); s < b*k; s++ {
		if j := s % k; j < 9 || j > 14 && j < 19 && s%2 == 0 {
			valid = append(valid, s)
		}
	}
	x := autograd.NewParam(tensor.Randn(len(valid), c, 1, rng))
	coef := tensor.Randn(len(valid), c, 1, rng)
	g := autograd.NewReusable()
	pass := func() {
		g.Reset()
		g.Backward(g.WeightedSumConst(mix.Apply(g, x, valid, b*k), coef))
	}
	pass()
	if n := testing.AllocsPerRun(20, pass); n != 0 {
		t.Fatalf("%v allocations per warm mixer pass", n)
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Minimize (x-3)² from x=0.
	p := autograd.NewParam(tensor.New(1, 1))
	opt := NewAdam([]*autograd.Var{p}, 0.1)
	for i := 0; i < 500; i++ {
		g := autograd.New()
		diff := g.Add(p, autograd.NewConst(tensor.FromSlice(1, 1, []float64{-3})))
		g.Backward(g.GroupedScore(diff, diff, []int32{0}, 1, 1))
		opt.Step()
		opt.ZeroGrad()
	}
	if math.Abs(p.Val.Data[0]-3) > 1e-3 {
		t.Fatalf("Adam converged to %v want 3", p.Val.Data[0])
	}
}

func TestAdamClipNorm(t *testing.T) {
	p := autograd.NewParam(tensor.FromSlice(1, 2, []float64{0, 0}))
	opt := NewAdam([]*autograd.Var{p}, 0.1)
	opt.ClipNorm = 1
	p.Grad.Data[0] = 300
	p.Grad.Data[1] = 400 // norm 500 → scaled to 1
	if math.Abs(opt.GradNorm()-500) > 1e-9 {
		t.Fatalf("grad norm %v", opt.GradNorm())
	}
	opt.Step()
	// After clipping the effective gradient is (0.6, 0.8); Adam's first step
	// is lr·g/(sqrt(g²)+eps) ≈ lr·sign(g), so both params move by ~0.1.
	for i := range p.Val.Data {
		if p.Val.Data[i] > -0.09 || p.Val.Data[i] < -0.11 {
			t.Fatalf("clipped step param[%d]=%v", i, p.Val.Data[i])
		}
	}
}

func TestAdamZeroGradAndCount(t *testing.T) {
	rng := mathx.NewRNG(8)
	l := NewLinear(3, 2, rng)
	opt := NewAdam(l.Params(), 0.01)
	l.W.Grad.Fill(1)
	opt.ZeroGrad()
	if l.W.Grad.MaxAbs() != 0 {
		t.Fatal("ZeroGrad")
	}
}

func TestCollectParams(t *testing.T) {
	rng := mathx.NewRNG(9)
	a := NewLinear(2, 2, rng)
	b := NewLinear(2, 2, rng)
	if len(CollectParams(a, b)) != 4 {
		t.Fatal("CollectParams")
	}
}
