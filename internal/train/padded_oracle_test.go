package train

import (
	"math"
	"testing"

	"taser/internal/autograd"
	"taser/internal/models"
	"taser/internal/sampler"
	"taser/internal/tensor"
)

// paddedTGAT is TGAT's padded execution — every per-target and per-neighbor
// stage on the full T and T·n layouts, padding masked afterwards — written on
// the model's parameter list (per layer: time encoder w, b; then W, B of the
// query, key, value and output layers), because the oracle in internal/models
// is a test file of that package. It exists for one case that oracle cannot
// build: the minibatch the real build path makes.
func paddedTGAT(g *autograd.Graph, params []*autograd.Var, mb *models.MiniBatch) *autograd.Var {
	rowsFrom := func(lo, n int) []int32 {
		idx := make([]int32, n)
		for i := range idx {
			idx[i] = int32(lo + i)
		}
		return idx
	}
	h := g.Const(mb.LeafFeat)
	for k, block := range mb.Layers {
		p := params[10*k : 10*k+10]
		timeEnc := func(dt *tensor.Matrix) *autograd.Var { return g.Cos(g.Affine(g.Const(dt), p[0], p[1])) }
		t, n := block.NumTargets, block.Budget
		hT, hN := g.GatherRows(h, rowsFrom(0, t)), g.GatherRows(h, rowsFrom(t, t*n))
		msg := g.ConcatCols(hN, g.Const(block.EdgeFeat), timeEnc(block.DeltaT))
		q := g.Affine(g.ConcatCols(hT, timeEnc(tensor.New(t, 1))), p[2], p[3])
		keys, vals := g.Affine(msg, p[4], p[5]), g.Affine(msg, p[6], p[7])
		scores := g.Scale(g.GroupedScore(q, keys, rowsFrom(0, t*n), n), 1/math.Sqrt(float64(n)))
		scores = g.Add(scores, g.Const(block.MaskBias))
		attn := g.Mul(g.SoftmaxRows(scores), g.Const(block.Mask))
		agg := g.GroupedWeightedSum(attn, vals, rowsFrom(0, t*n), n)
		h = g.GELU(g.Affine(g.ConcatCols(agg, hT), p[8], p[9]))
	}
	return h
}

// TestTGATOnTrainerBuiltBatchMatchesPaddedBitwise runs the compact forward
// against the padded one on a two-layer minibatch from Trainer.BuildMiniBatch
// with the adaptive outer hop: the sentinel pattern the build path really
// produces — a padded outer slot becomes the inner target (node 0, time 0),
// whose neighborhood is all padding — next to real inner targets with
// partly filled neighborhoods. Root embeddings and every parameter gradient
// must agree to the bit.
func TestTGATOnTrainerBuiltBatchMatchesPaddedBitwise(t *testing.T) {
	cfg := tinyCfg()
	cfg.AdaNeighbor = true
	tr, err := New(cfg, tinyDS(29))
	if err != nil {
		t.Fatal(err)
	}
	// Early query times leave outer neighborhoods short of the budget.
	roots := make([]sampler.Target, 24)
	for i := range roots {
		roots[i] = sampler.Target{Node: int32(2 * i), Time: tr.DS.Graph.Events[20+9*i].Time}
	}
	mb := tr.BuildMiniBatch(roots)
	outer, inner := mb.Layers[1], mb.Layers[0]
	if v, slots := len(outer.Valid), len(roots)*outer.Budget; v == 0 || v == slots {
		t.Fatalf("outer hop has %d of %d slots valid: the batch holds no mix of sentinel and real inner targets", v, slots)
	}
	if len(inner.Valid) == 0 {
		t.Fatal("no inner target has a neighbor")
	}

	params := tr.Model.Params()
	run := func(forward func(g *autograd.Graph) *autograd.Var) [][]float64 {
		for _, p := range params {
			p.Grad.Zero()
		}
		g := autograd.New()
		out := forward(g)
		coef := tensor.New(out.Rows(), out.Cols())
		for i := range coef.Data {
			coef.Data[i] = math.Sin(float64(i + 1))
		}
		g.Backward(g.WeightedSumConst(out, coef))
		got := [][]float64{append([]float64(nil), out.Val.Data...)}
		for _, p := range params {
			got = append(got, append([]float64(nil), p.Grad.Data...))
		}
		return got
	}
	want := run(func(g *autograd.Graph) *autograd.Var { return paddedTGAT(g, params, mb) })
	got := run(func(g *autograd.Graph) *autograd.Var { out, _ := tr.Model.Forward(g, mb); return out })
	for i := range want {
		for j, w := range want[i] {
			if math.Float64bits(got[i][j]) != math.Float64bits(w) {
				t.Fatalf("tensor %d (0 = root embeddings, then parameter gradients) elem %d: compact %v, padded %v", i, j, got[i][j], w)
			}
		}
	}
}
