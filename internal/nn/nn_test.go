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
		lossVar := g.WeightedSumConst(g.GroupedScore(diff, diff, everyRow(16), 1), mean)
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
	y := mix.Apply(g, x, everyRow(b*k))
	if y.Rows() != b*k || y.Cols() != c {
		t.Fatalf("mixer output %dx%d want %dx%d", y.Rows(), y.Cols(), b*k, c)
	}
}

// TestMixerBlockReturnsValidRowsOnly: with padding tokens (zero rows left out
// of valid) Apply hands back exactly the valid rows of the full-layout
// result, in order.
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
	full := mix.Apply(autograd.New(), autograd.NewConst(x), everyRow(b*k)).Val
	got := mix.Apply(autograd.New(), autograd.NewConst(x), valid).Val
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
	y0 := mix.Apply(autograd.New(), autograd.NewConst(base.Clone()), everyRow(b*k)).Val.Clone()
	perturbed := base.Clone()
	perturbed.Set(0, 0, perturbed.At(0, 0)+1) // token 0 of group 0
	y1 := mix.Apply(autograd.New(), autograd.NewConst(perturbed), everyRow(b*k)).Val

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
	g.Backward(g.WeightedSumConst(mix.Apply(g, x, everyRow(b*k)), coef))
	for i, p := range mix.Params() {
		if p.Grad.MaxAbs() == 0 {
			t.Fatalf("param %d received no gradient", i)
		}
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Minimize (x-3)² from x=0.
	p := autograd.NewParam(tensor.New(1, 1))
	opt := NewAdam([]*autograd.Var{p}, 0.1)
	for i := 0; i < 500; i++ {
		g := autograd.New()
		diff := g.Add(p, autograd.NewConst(tensor.FromSlice(1, 1, []float64{-3})))
		g.Backward(g.GroupedScore(diff, diff, []int32{0}, 1))
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
