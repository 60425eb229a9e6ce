package autograd

import (
	"math"
	"testing"

	"taser/internal/mathx"
	"taser/internal/tensor"
)

// gradCheck compares the analytic gradient of params against central finite
// differences of the scalar produced by forward. forward must rebuild the
// whole graph from the current parameter values on every call.
func gradCheck(t *testing.T, params []*Var, forward func(g *Graph) *Var, tol float64) {
	t.Helper()
	// Analytic pass.
	for _, p := range params {
		p.Grad.Zero()
	}
	g := New()
	loss := forward(g)
	g.Backward(loss)

	const h = 1e-6
	for pi, p := range params {
		for i := range p.Val.Data {
			orig := p.Val.Data[i]
			p.Val.Data[i] = orig + h
			up := forward(New()).Val.Data[0]
			p.Val.Data[i] = orig - h
			down := forward(New()).Val.Data[0]
			p.Val.Data[i] = orig
			fd := (up - down) / (2 * h)
			an := p.Grad.Data[i]
			scale := math.Max(1, math.Max(math.Abs(fd), math.Abs(an)))
			if math.Abs(fd-an)/scale > tol {
				t.Fatalf("param %d elem %d: analytic %v, finite-diff %v", pi, i, an, fd)
			}
		}
	}
}

// TestGradMatMul checks the product half of Affine — dX and dW — on a tile
// shape, a scalar-loop shape and the time encoder's K = 1 outer product.
func TestGradMatMul(t *testing.T) {
	rng := mathx.NewRNG(1)
	for _, shape := range [][3]int{{3, 4, 2}, {5, 3, 9}, {6, 1, 8}} {
		x := NewParam(tensor.Randn(shape[0], shape[1], 1, rng))
		w := NewParam(tensor.Randn(shape[1], shape[2], 1, rng))
		bias := NewConst(tensor.Randn(1, shape[2], 1, rng))
		gradCheck(t, []*Var{x, w}, func(g *Graph) *Var {
			return g.MeanAll(g.Tanh(g.Affine(x, w, bias)))
		}, 1e-6)
	}
}

func TestGradAddSubMulScale(t *testing.T) {
	rng := mathx.NewRNG(2)
	a := NewParam(tensor.Randn(2, 3, 1, rng))
	b := NewParam(tensor.Randn(2, 3, 1, rng))
	gradCheck(t, []*Var{a, b}, func(g *Graph) *Var {
		x := g.Add(a, b)
		y := g.Sub(x, g.Scale(b, 0.5))
		z := g.Mul(y, a)
		return g.SumAll(z)
	}, 1e-6)
}

// TestGradAddBias checks the bias half of Affine: dB is dOut's column sum.
func TestGradAddBias(t *testing.T) {
	rng := mathx.NewRNG(3)
	x := NewConst(tensor.Randn(4, 3, 1, rng))
	w := NewConst(tensor.Randn(3, 3, 1, rng))
	bias := NewParam(tensor.Randn(1, 3, 1, rng))
	gradCheck(t, []*Var{bias}, func(g *Graph) *Var {
		return g.MeanAll(g.Sigmoid(g.Affine(x, w, bias)))
	}, 1e-6)
}

func TestGradConcatCols(t *testing.T) {
	rng := mathx.NewRNG(4)
	a := NewParam(tensor.Randn(3, 2, 1, rng))
	b := NewParam(tensor.Randn(3, 4, 1, rng))
	w := NewParam(tensor.Randn(6, 1, 1, rng))
	bias := NewParam(tensor.Randn(1, 1, 1, rng))
	gradCheck(t, []*Var{a, b, w, bias}, func(g *Graph) *Var {
		return g.MeanAll(g.Affine(g.ConcatCols(a, b), w, bias))
	}, 1e-6)
}

// TestGradAffineParts checks the parts form of a linear layer: each part's
// gradient, w's row blocks and the bias, with a constant part and a
// zero-width part between the differentiated ones.
func TestGradAffineParts(t *testing.T) {
	rng := mathx.NewRNG(17)
	a := NewParam(tensor.Randn(4, 3, 1, rng))
	none := NewParam(tensor.New(4, 0))
	c := NewConst(tensor.Randn(4, 2, 1, rng))
	b := NewParam(tensor.Randn(4, 5, 1, rng))
	w := NewParam(tensor.Randn(10, 3, 1, rng))
	bias := NewParam(tensor.Randn(1, 3, 1, rng))
	gradCheck(t, []*Var{a, b, w, bias}, func(g *Graph) *Var {
		return g.MeanAll(g.Tanh(g.AffineParts(w, bias, a, none, c, b)))
	}, 1e-6)
}

func TestGradGatherRows(t *testing.T) {
	rng := mathx.NewRNG(5)
	table := NewParam(tensor.Randn(5, 3, 1, rng))
	idx := []int32{4, 0, 0, 2}
	gradCheck(t, []*Var{table}, func(g *Graph) *Var {
		return g.SumAll(g.Tanh(g.GatherRows(table, idx)))
	}, 1e-6)
}

func TestGradActivations(t *testing.T) {
	rng := mathx.NewRNG(6)
	for name, f := range map[string]func(g *Graph, v *Var) *Var{
		"sigmoid":   func(g *Graph, v *Var) *Var { return g.Sigmoid(v) },
		"tanh":      func(g *Graph, v *Var) *Var { return g.Tanh(v) },
		"gelu":      func(g *Graph, v *Var) *Var { return g.GELU(v) },
		"leakyrelu": func(g *Graph, v *Var) *Var { return g.LeakyReLU(v, 0.2) },
		"cos":       func(g *Graph, v *Var) *Var { return g.Cos(v) },
	} {
		a := NewParam(tensor.Randn(3, 4, 1, rng))
		// Nudge values away from the LeakyReLU kink.
		for i := range a.Val.Data {
			if math.Abs(a.Val.Data[i]) < 1e-3 {
				a.Val.Data[i] = 0.1
			}
		}
		act := f
		gradCheck(t, []*Var{a}, func(g *Graph) *Var {
			return g.MeanAll(act(g, a))
		}, 1e-5)
		_ = name
	}
}

func TestGradSoftmaxRows(t *testing.T) {
	rng := mathx.NewRNG(7)
	a := NewParam(tensor.Randn(3, 5, 1, rng))
	coef := tensor.Randn(3, 5, 1, rng)
	gradCheck(t, []*Var{a}, func(g *Graph) *Var {
		return g.WeightedSumConst(g.SoftmaxRows(a), coef)
	}, 1e-6)
}

func TestGradLogSoftmaxRows(t *testing.T) {
	rng := mathx.NewRNG(8)
	a := NewParam(tensor.Randn(2, 6, 1, rng))
	coef := tensor.Randn(2, 6, 1, rng)
	gradCheck(t, []*Var{a}, func(g *Graph) *Var {
		return g.WeightedSumConst(g.LogSoftmaxRows(a), coef)
	}, 1e-6)
}

// The neighborhood reductions' gradchecks run on every slot (the dense form)
// and on a proper subset of 3 groups of k: group 0 partial, group 1 empty,
// group 2 full.
func groupedSlotSets(k int) [][]int32 {
	subset := []int32{1, 2}
	for s := 2 * k; s < 3*k; s++ {
		subset = append(subset, int32(s))
	}
	every := make([]int32, 3*k)
	for i := range every {
		every[i] = int32(i)
	}
	return [][]int32{every, subset}
}

func TestGradGroupMean(t *testing.T) {
	rng := mathx.NewRNG(9)
	for _, slots := range groupedSlotSets(3) {
		a := NewParam(tensor.Randn(len(slots), 3, 1, rng))
		gradCheck(t, []*Var{a}, func(g *Graph) *Var {
			return g.MeanAll(g.Sigmoid(g.GroupMean(a, slots, 3, 3)))
		}, 1e-6)
	}
}

func TestGradBCEWithLogits(t *testing.T) {
	rng := mathx.NewRNG(10)
	logits := NewParam(tensor.Randn(6, 1, 1, rng))
	labels := []float64{1, 0, 1, 1, 0, 0}
	gradCheck(t, []*Var{logits}, func(g *Graph) *Var {
		return g.BCEWithLogits(logits, labels)
	}, 1e-6)
}

func TestGradLayerNorm(t *testing.T) {
	rng := mathx.NewRNG(11)
	a := NewParam(tensor.Randn(4, 5, 1, rng))
	gain := NewParam(tensor.Randn(1, 5, 0.5, rng))
	addOne(gain.Val) // keep gains near 1
	bias := NewParam(tensor.Randn(1, 5, 0.5, rng))
	coef := tensor.Randn(4, 5, 1, rng)
	gradCheck(t, []*Var{a, gain, bias}, func(g *Graph) *Var {
		return g.WeightedSumConst(g.LayerNormRows(a, gain, bias), coef)
	}, 1e-4)
}

// addOne adds 1 to every element of m in place.
func addOne(m *tensor.Matrix) {
	for i := range m.Data {
		m.Data[i]++
	}
}

func TestGradGroupedScore(t *testing.T) {
	rng := mathx.NewRNG(12)
	const b, k, d = 3, 4, 5
	for _, slots := range groupedSlotSets(k) {
		q := NewParam(tensor.Randn(b, d, 1, rng))
		keys := NewParam(tensor.Randn(len(slots), d, 1, rng))
		coef := tensor.Randn(b, k, 1, rng)
		gradCheck(t, []*Var{q, keys}, func(g *Graph) *Var {
			return g.WeightedSumConst(g.GroupedScore(q, keys, slots, k), coef)
		}, 1e-6)
	}
}

func TestGradGroupedWeightedSum(t *testing.T) {
	rng := mathx.NewRNG(13)
	const b, k, d = 3, 3, 4
	for _, slots := range groupedSlotSets(k) {
		w := NewParam(tensor.Randn(b, k, 1, rng))
		vals := NewParam(tensor.Randn(len(slots), d, 1, rng))
		coef := tensor.Randn(b, d, 1, rng)
		gradCheck(t, []*Var{w, vals}, func(g *Graph) *Var {
			return g.WeightedSumConst(g.GroupedWeightedSum(w, vals, slots, k), coef)
		}, 1e-6)
	}
}

func TestGradGroupedMatMulLeft(t *testing.T) {
	rng := mathx.NewRNG(14)
	const b, k, k2, c = 2, 3, 4, 5
	w := NewParam(tensor.Randn(k2, k, 1, rng))
	src := NewParam(tensor.Randn(b*k, c, 1, rng))
	coef := tensor.Randn(b*k2, c, 1, rng)
	gradCheck(t, []*Var{w, src}, func(g *Graph) *Var {
		return g.WeightedSumConst(g.GroupedMatMulLeft(w, src, k), coef)
	}, 1e-6)
}

func TestGradFullAttentionStack(t *testing.T) {
	// End-to-end: a miniature grouped-attention block exactly like TGAT's
	// combiner, checked against finite differences through softmax, scoring
	// and the weighted sum simultaneously.
	rng := mathx.NewRNG(16)
	const b, k, d = 3, 3, 4
	for _, slots := range groupedSlotSets(k) {
		q := NewParam(tensor.Randn(b, d, 0.5, rng))
		keys := NewParam(tensor.Randn(len(slots), d, 0.5, rng))
		vals := NewParam(tensor.Randn(len(slots), d, 0.5, rng))
		coef := tensor.Randn(b, d, 1, rng)
		gradCheck(t, []*Var{q, keys, vals}, func(g *Graph) *Var {
			scores := g.Scale(g.GroupedScore(q, keys, slots, k), 1/math.Sqrt(d))
			attn := g.SoftmaxRows(scores)
			out := g.GroupedWeightedSum(attn, vals, slots, k)
			return g.WeightedSumConst(out, coef)
		}, 1e-5)
	}
}

func TestBackwardPanicsOnNonScalar(t *testing.T) {
	g := New()
	a := NewParam(tensor.New(2, 2))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g.Backward(a)
}

func TestConstHasNoGrad(t *testing.T) {
	g := New()
	c := NewConst(tensor.FromSlice(1, 2, []float64{1, 2}))
	p := NewParam(tensor.FromSlice(2, 1, []float64{3, 4}))
	loss := g.MeanAll(g.Affine(c, p, NewConst(tensor.New(1, 1))))
	g.Backward(loss)
	if c.Grad != nil {
		t.Fatal("const must not accumulate grad")
	}
	if p.Grad.Data[0] == 0 {
		t.Fatal("param grad must be populated")
	}
}

func TestParamReuseAccumulates(t *testing.T) {
	// Using the same parameter twice must sum both contribution paths.
	p := NewParam(tensor.FromSlice(1, 1, []float64{3}))
	g := New()
	// loss = p*p → dp = 2p = 6
	loss := g.SumAll(g.Mul(p, p))
	g.Backward(loss)
	if math.Abs(p.Grad.Data[0]-6) > 1e-12 {
		t.Fatalf("grad %v want 6", p.Grad.Data[0])
	}
}

func TestGradAccumulatesAcrossGraphs(t *testing.T) {
	p := NewParam(tensor.FromSlice(1, 1, []float64{2}))
	for i := 0; i < 3; i++ {
		g := New()
		g.Backward(g.SumAll(g.Scale(p, 1)))
	}
	if p.Grad.Data[0] != 3 {
		t.Fatalf("grads must accumulate across graphs until zeroed: %v", p.Grad.Data[0])
	}
}
