package autograd

import (
	"math"
	"testing"

	"taser/internal/mathx"
	"taser/internal/tensor"
)

func TestGradReshape(t *testing.T) {
	rng := mathx.NewRNG(20)
	a := NewParam(tensor.Randn(6, 1, 1, rng))
	coef := tensor.Randn(2, 3, 1, rng)
	gradCheck(t, []*Var{a}, func(g *Graph) *Var {
		return g.WeightedSumConst(g.Reshape(a, 2, 3), coef)
	}, 1e-6)
}

func TestReshapePanicsOnCountMismatch(t *testing.T) {
	g := New()
	a := NewParam(tensor.New(2, 3))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g.Reshape(a, 4, 2)
}

func TestGradScatterRows(t *testing.T) {
	rng := mathx.NewRNG(21)
	a := NewParam(tensor.Randn(3, 4, 1, rng))
	idx := []int32{0, 2, 4} // strictly ascending, with gaps and rows past the last
	coef := tensor.Randn(7, 4, 1, rng)
	gradCheck(t, []*Var{a}, func(g *Graph) *Var {
		return g.WeightedSumConst(g.ScatterRows(a, idx, 7), coef)
	}, 1e-6)
}

func TestScatterRowsIsGatherRowsAdjoint(t *testing.T) {
	g := New()
	a := NewParam(tensor.FromSlice(2, 2, []float64{1, 2, 3, 4}))
	o := g.ScatterRows(a, []int32{0, 2}, 4)
	want := []float64{1, 2, 0, 0, 3, 4, 0, 0}
	for i, w := range want {
		if o.Val.Data[i] != w {
			t.Fatalf("scattered %v, want %v", o.Val.Data, want)
		}
	}
	// Only the named rows feed gradient back, each to its own source row.
	coef := tensor.FromSlice(4, 2, []float64{1, 2, 3, 4, 5, 6, 7, 8})
	g.Backward(g.WeightedSumConst(o, coef))
	for i, w := range []float64{1, 2, 5, 6} {
		if a.Grad.Data[i] != w {
			t.Fatalf("scatter gradient %v", a.Grad.Data)
		}
	}
}

// TestScatterRowsZeroRowSource is the all-padding batch: no valid slot, so a
// 0×C operand runs through Affine, ConcatCols, GatherRows and ScatterRows
// (forward and backward) under the degenerate-shape policy — no-ops, and an
// all-zero result.
func TestScatterRowsZeroRowSource(t *testing.T) {
	rng := mathx.NewRNG(23)
	table := NewParam(tensor.Randn(5, 3, 1, rng))
	w := NewParam(tensor.Randn(6, 2, 1, rng))
	bias := NewParam(tensor.Randn(4, 2, 1, rng))
	g := New()
	none := g.GatherRows(table, nil)
	if none.Rows() != 0 || none.Cols() != 3 {
		t.Fatalf("empty gather is %dx%d", none.Rows(), none.Cols())
	}
	proj := g.Affine(g.ConcatCols(none, none), w, NewConst(tensor.New(1, 2)))
	out := g.Add(g.ScatterRows(proj, nil, 4), bias)
	for i, v := range out.Val.Data {
		if v != bias.Val.Data[i] {
			t.Fatal("scattering no rows must yield zeros")
		}
	}
	g.Backward(sumAll(g, out))
	if table.Grad.MaxAbs() != 0 || w.Grad.MaxAbs() != 0 {
		t.Fatal("no row, no gradient")
	}
	if bias.Grad.Data[0] != 1 {
		t.Fatal("gradient must still reach the other operand")
	}
}

func TestScatterRowsShapePanic(t *testing.T) {
	g := New()
	a := NewParam(tensor.New(2, 2))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g.ScatterRows(a, []int32{0}, 3)
}

func TestOpsCount(t *testing.T) {
	g := New()
	a := NewParam(tensor.New(2, 2))
	_ = g.Add(a, a)
	_ = g.GELU(a)
	if len(g.tape) != 2 {
		t.Fatalf("tape length %d", len(g.tape))
	}
}

func TestGELULargeInputParallelPath(t *testing.T) {
	// A large input (20,000 elements) agrees with the scalar definition,
	// forward and backward.
	rng := mathx.NewRNG(22)
	a := NewParam(tensor.Randn(200, 100, 1, rng))
	g := New()
	o := g.GELU(a)
	for i, v := range a.Val.Data {
		if y, _ := mathx.GELUTanh(v); o.Val.Data[i] != y {
			t.Fatal("large GELU mismatch")
		}
	}
	g.Backward(sumAll(g, o))
	for i, v := range a.Val.Data {
		if _, th := mathx.GELUTanh(v); a.Grad.Data[i] != mathx.GELUGradTanh(v, th) {
			t.Fatal("large GELU backward mismatch")
		}
	}
}

// TestAffineMatchesMatMulThenAddBiasBitwise keeps the pair of ops Affine
// replaced as a reference, written out on matrices the way their tape entries
// ran: the product into its own output, a copy of it plus the bias into a
// second; backward, the second's gradient added onto the product's zeroed
// one, and the two matmul products read from that sum. Values, dX, dW and dB
// agree to the bit on the step's shapes — the time encoder's K = 1, a
// projection, the FFN — and on ones no tile fits or that have no rows.
func TestAffineMatchesMatMulThenAddBiasBitwise(t *testing.T) {
	rng := mathx.NewRNG(24)
	for _, shape := range [][3]int{{70, 1, 100}, {37, 272, 100}, {13, 200, 100}, {3, 4, 2}, {5, 9, 3}, {0, 8, 8}} {
		r, k, c := shape[0], shape[1], shape[2]
		x := NewParam(tensor.Randn(r, k, 1, rng))
		w := NewParam(tensor.Randn(k, c, 1, rng))
		b := NewParam(tensor.Randn(1, c, 1, rng))
		dOut := tensor.Randn(r, c, 1, rng)

		prod := tensor.New(r, c)
		tensor.MatMulInto(prod, x.Val, w.Val)
		want := prod.Clone()
		for i := 0; i < r; i++ {
			for j, v := range b.Val.Data {
				want.Data[i*c+j] += v
			}
		}
		dProd := tensor.New(r, c)
		tensor.AddInto(dProd, dProd, dOut)
		dB := tensor.New(1, c)
		for i := 0; i < r; i++ {
			for j, v := range dOut.Row(i) {
				dB.Data[j] += v
			}
		}
		dX, dW := tensor.New(r, k), tensor.New(k, c)
		tensor.MatMulTransBAddInto(dX, dProd, w.Val)
		tensor.MatMulTransAInto(dW, x.Val, dProd)

		g := New()
		o := g.Affine(x, w, b)
		g.Backward(g.WeightedSumConst(o, dOut))
		for name, m := range map[string][2]*tensor.Matrix{
			"value": {o.Val, want}, "dX": {x.Grad, dX}, "dW": {w.Grad, dW}, "dB": {b.Grad, dB},
		} {
			for i, v := range m[0].Data {
				if math.Float64bits(v) != math.Float64bits(m[1].Data[i]) {
					t.Fatalf("%dx%d @ %dx%d: %s[%d] = %v, the pair gives %v", r, k, k, c, name, i, v, m[1].Data[i])
				}
			}
		}
	}
}

// TestAffinePartsMatchesConcatBitwise keeps Affine(ConcatCols(…)) as the
// reference for AffineParts: every layer's value, the loss and every
// parameter's gradient agree to the bit, over the shapes that take each
// kernel path and the two ways the models share parts — one part list
// feeding two layers (TGAT's message into wk and wv) and a part another op
// reads again later (hT in wq and in the output FFN).
func TestAffinePartsMatchesConcatBitwise(t *testing.T) {
	rng := mathx.NewRNG(25)
	param := func(r, c int) *Var { return NewParam(tensor.Randn(r, c, 1, rng)) }
	type affineCase struct {
		name   string
		params []*Var
		// build returns the layers' outputs, through AffineParts or through
		// the concatenation.
		build func(g *Graph, parts bool) []*Var
	}
	// layer is one linear layer over parameter parts of the given widths.
	layer := func(name string, rows int, widths []int, out int) affineCase {
		var xs []*Var
		k := 0
		for _, wd := range widths {
			xs = append(xs, param(rows, wd))
			k += wd
		}
		w, b := param(k, out), param(1, out)
		return affineCase{name, append(xs, w, b), func(g *Graph, parts bool) []*Var {
			if parts {
				return []*Var{g.AffineParts(w, b, xs...)}
			}
			return []*Var{g.Affine(g.ConcatCols(xs...), w, b)}
		}}
	}
	cases := []affineCase{
		layer("zero-width part (TGAT layer 0, NodeDim 0)", 6, []int{0, 5, 8}, 9),
		layer("parts narrower than 8 (dotRows)", 12, []int{3, 5, 7}, 16),
		layer("rows < 4 (axpyRows)", 3, []int{9, 12}, 10),
		layer("rows%4, cols%8 remainders (tilePart)", 13, []int{9, 11}, 19),
		layer("300 rows, three wide parts", 300, []int{48, 24, 16}, 24),
	}
	{
		table, dt := param(10, 6), param(9, 4)
		edge := tensor.Randn(9, 8, 1, rng)
		wk, bk, wv, bv := param(18, 8), param(1, 8), param(18, 8), param(1, 8)
		idx := []int32{3, 0, 9, 3, 5, 5, 1, 8, 0}
		cases = append(cases, affineCase{"one part list, two layers (msg → wk, wv)",
			[]*Var{table, dt, wk, bk, wv, bv}, func(g *Graph, parts bool) []*Var {
				hN, e, phi := g.GatherRows(table, idx), g.Const(edge), g.GELU(dt)
				if parts {
					return []*Var{g.AffineParts(wk, bk, hN, e, phi), g.AffineParts(wv, bv, hN, e, phi)}
				}
				msg := g.ConcatCols(hN, e, phi)
				return []*Var{g.Affine(msg, wk, bk), g.Affine(msg, wv, bv)}
			}})
	}
	{
		table, z, attn := param(7, 6), param(5, 4), param(5, 8)
		wq, bq, wo, bo := param(10, 8), param(1, 8), param(14, 8), param(1, 8)
		idx := []int32{6, 2, 2, 0, 4}
		cases = append(cases, affineCase{"a part read again (hT in wq and out)",
			[]*Var{table, z, attn, wq, bq, wo, bo}, func(g *Graph, parts bool) []*Var {
				hT, phi0 := g.GatherRows(table, idx), g.GELU(z)
				var q, out *Var
				if parts {
					q = g.AffineParts(wq, bq, hT, phi0)
					out = g.AffineParts(wo, bo, g.Add(g.GELU(q), attn), hT)
				} else {
					q = g.Affine(g.ConcatCols(hT, phi0), wq, bq)
					out = g.Affine(g.ConcatCols(g.Add(g.GELU(q), attn), hT), wo, bo)
				}
				return []*Var{q, out}
			}})
	}

	for _, c := range cases {
		run := func(parts bool) (vals, grads []*tensor.Matrix) {
			for _, p := range c.params {
				p.Grad.Zero()
			}
			g := New()
			var loss *Var
			for i, o := range c.build(g, parts) {
				coef := tensor.Randn(o.Rows(), o.Cols(), 1, mathx.NewRNG(uint64(100+i)))
				if term := g.WeightedSumConst(o, coef); loss == nil {
					loss = term
				} else {
					loss = g.Add(loss, term)
				}
				vals = append(vals, o.Val)
			}
			g.Backward(loss)
			vals = append(vals, loss.Val)
			for _, p := range c.params {
				grads = append(grads, p.Grad.Clone())
			}
			return vals, grads
		}
		gotVals, gotGrads := run(true)
		wantVals, wantGrads := run(false)
		for kind, pair := range map[string][2][]*tensor.Matrix{"value": {gotVals, wantVals}, "gradient": {gotGrads, wantGrads}} {
			for i, m := range pair[0] {
				for j, v := range m.Data {
					if w := pair[1][i].Data[j]; math.Float64bits(v) != math.Float64bits(w) {
						t.Fatalf("%s: %s %d elem %d = %v, the concatenation gives %v", c.name, kind, i, j, v, w)
					}
				}
			}
		}
	}
}
