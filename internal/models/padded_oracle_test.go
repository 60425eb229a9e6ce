package models

import (
	"fmt"
	"math"
	"testing"

	"taser/internal/autograd"
	"taser/internal/mathx"
	"taser/internal/tensor"
)

// The padded forwards below are the execution this package had before it
// went padding-free: every per-neighbor stage runs on the full T·n layout and
// padding is masked away afterwards. They survive only here, as the oracle
// the compact forwards must match bit for bit — outputs and every parameter
// gradient (DESIGN.md §15 has the argument for why they do).

// allRows is the identity index over n rows.
func allRows(n int) []int32 {
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	return idx
}

// maskRows zeroes the rows of x whose mask entry is 0 by multiplying with
// the mask broadcast across columns.
func maskRows(g *autograd.Graph, x *autograd.Var, mask *tensor.Matrix) *autograd.Var {
	wide := tensor.New(x.Rows(), x.Cols())
	for i, v := range mask.Data {
		for j := range wide.Row(i) {
			wide.Row(i)[j] = v
		}
	}
	return g.Mul(x, g.Const(wide))
}

// paddedSplit is splitTargetsNbrs over every slot.
func paddedSplit(g *autograd.Graph, h *autograd.Var, t, n int) (hT, hN *autograd.Var) {
	idxN := allRows(t * n)
	for i := range idxN {
		idxN[i] += int32(t)
	}
	return g.GatherRows(h, allRows(t)), g.GatherRows(h, idxN)
}

func paddedTGATForward(m *TGAT, g *autograd.Graph, mb *MiniBatch) *autograd.Var {
	hs := paddedTGATLayers(m, g, mb)
	return hs[len(hs)-1]
}

// paddedTGATLayers returns every layer's output, innermost first, one row per
// target of the padded layout — live or not.
func paddedTGATLayers(m *TGAT, g *autograd.Graph, mb *MiniBatch) (hs []*autograd.Var) {
	h := g.Const(mb.LeafFeat)
	for k, block := range mb.Layers {
		layer := m.layers[k]
		t, n := block.NumTargets, block.Budget
		hT, hN := paddedSplit(g, h, t, n)
		phi := layer.timeEnc.Encode(g, block.DeltaT)
		msg := g.ConcatCols(hN, g.Const(block.EdgeFeat), phi)
		q := layer.wq.Apply(g, g.ConcatCols(hT, layer.timeEnc.EncodeZeros(g, t)))
		keys := layer.wk.Apply(g, msg)
		vals := layer.wv.Apply(g, msg)
		scores := g.Scale(g.GroupedScore(q, keys, allRows(t*n), n), 1/math.Sqrt(float64(n)))
		scores = g.Add(scores, g.Const(block.MaskBias))
		attn := g.Mul(g.SoftmaxRows(scores), g.Const(block.Mask))
		agg := g.GroupedWeightedSum(attn, vals, allRows(t*n), n)
		h = g.GELU(layer.out.Apply(g, g.ConcatCols(agg, hT)))
		hs = append(hs, h)
	}
	return hs
}

func paddedGraphMixerForward(m *GraphMixer, g *autograd.Graph, mb *MiniBatch) *autograd.Var {
	block := mb.Layers[0]
	t, n := block.NumTargets, block.Budget
	hT, hN := paddedSplit(g, g.Const(mb.LeafFeat), t, n)
	phi := tensor.New(t*n, m.cfg.TimeDim)
	for i := 0; i < t*n; i++ {
		m.timeEnc.Encode(phi.Row(i), block.DeltaT.Data[i])
	}
	tokens := g.ConcatCols(hN, g.Const(block.EdgeFeat), g.Const(phi))
	tokens = maskRows(g, m.tokenIn.Apply(g, tokens), block.Mask)
	// With every row listed as valid the mixer's channel mixing runs on the
	// full layout too.
	mixed := maskRows(g, m.mixer.Apply(g, tokens, allRows(t*n)), block.Mask)
	mean := g.GroupMean(mixed, allRows(t*n), t, n)
	return g.GELU(m.readout.Apply(g, g.ConcatCols(mean, hT)))
}

// oracleBatches are the fill patterns the contract is pinned on: nothing
// valid (V = 0: zero-row operands through every row-wise op), a sparse batch
// in which the first target of every layer has no valid neighbor at all, and
// a full one. Padding slots carry junk Δt and edge features, which only the
// padded path ever reads.
func oracleBatches(rng *mathx.RNG, roots, layers, budget, nodeDim, edgeDim int) map[string]*MiniBatch {
	out := map[string]*MiniBatch{
		"fill=0": buildMiniBatch(rng, roots, layers, budget, nodeDim, edgeDim, 0),
		"fill=0.3": buildMiniBatchWhere(rng, roots, layers, budget, nodeDim, edgeDim,
			func(k, i, j int) bool { return i != 0 && rng.Float64() < 0.3 }),
		"fill=1": buildMiniBatch(rng, roots, layers, budget, nodeDim, edgeDim, 1),
	}
	for _, mb := range out {
		for _, block := range mb.Layers {
			for s, v := range block.Mask.Data {
				if v == 0 {
					block.DeltaT.Data[s] = 100 * rng.Float64()
					for c := range block.EdgeFeat.Row(s) {
						block.EdgeFeat.Row(s)[c] = rng.NormFloat64()
					}
				}
			}
		}
	}
	return out
}

// assertBitwise runs both forwards on fresh graphs under the same scalar
// loss and compares root embeddings and all parameter gradients by bit
// pattern.
func assertBitwise(t *testing.T, name string, params []*autograd.Var, compact, padded func(g *autograd.Graph) *autograd.Var) {
	t.Helper()
	run := func(forward func(g *autograd.Graph) *autograd.Var) (out []float64, grads [][]float64) {
		for _, p := range params {
			p.Grad.Zero()
		}
		g := autograd.New()
		o := forward(g)
		coef := tensor.New(o.Rows(), o.Cols())
		for i := range coef.Data {
			coef.Data[i] = math.Sin(float64(i + 1))
		}
		g.Backward(g.WeightedSumConst(o, coef))
		for _, p := range params {
			grads = append(grads, append([]float64(nil), p.Grad.Data...))
		}
		return append([]float64(nil), o.Val.Data...), grads
	}
	wantOut, wantGrads := run(padded)
	gotOut, gotGrads := run(compact)
	if err := sameBits(gotOut, wantOut); err != nil {
		t.Fatalf("%s: output %v", name, err)
	}
	for i := range params {
		if err := sameBits(gotGrads[i], wantGrads[i]); err != nil {
			t.Fatalf("%s: gradient of param %d %v", name, i, err)
		}
	}
}

func sameBits(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("has %d elements, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("elem %d: compact %v (%#x), padded %v (%#x)", i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
	return nil
}

// The batches' random inner masks give targets nothing above reads — the
// neighbors in padded slots, and everything under them — valid neighbors of
// their own, which a build on a dataset with negative timestamps or a
// hand-built minibatch can produce: the padded forward computes those rows
// and masks them, the compact one never runs them. Three layers take the
// live recursion past one step.
func TestTGATCompactMatchesPaddedBitwise(t *testing.T) {
	rng := mathx.NewRNG(41)
	for _, layers := range []int{2, 3} {
		cfg := TGATConfig{NodeDim: 3, EdgeDim: 2, HiddenDim: 6, TimeDim: 4, Layers: layers, Budget: 3}
		m := NewTGAT(cfg, rng)
		for name, mb := range oracleBatches(rng, 5, layers, 3, 3, 2) {
			mb := mb
			name = fmt.Sprintf("%d layers, %s", layers, name)
			assertBitwise(t, name, m.Params(),
				func(g *autograd.Graph) *autograd.Var { out, _ := m.Forward(g, mb); return out },
				func(g *autograd.Graph) *autograd.Var { return paddedTGATForward(m, g, mb) })

			// And a pass that records nothing computes the same bits.
			g := autograd.NewReusable()
			g.ResetForwardOnly()
			out, _ := m.Forward(g, mb)
			if err := sameBits(out.Val.Data, paddedTGATForward(m, autograd.New(), mb).Val.Data); err != nil {
				t.Fatalf("%s, forward-only: output %v", name, err)
			}
		}
	}
}

// TestTGATEmbedsLiveTargetsOnly pins what each layer runs on: layer k hands
// back one row per live target — bitwise the padded layer's row for it — and
// asks the layer underneath for those targets plus the neighbors in their
// valid slots, nothing else. With every root live that is roots + valid rows
// for the layer under the outermost, not roots·(1+n).
func TestTGATEmbedsLiveTargetsOnly(t *testing.T) {
	rng := mathx.NewRNG(43)
	const roots, layers, n = 4, 3, 3
	m := NewTGAT(TGATConfig{NodeDim: 3, EdgeDim: 2, HiddenDim: 6, TimeDim: 4, Layers: layers, Budget: n}, rng)
	mb := oracleBatches(rng, roots, layers, n, 3, 2)["fill=0.3"]
	g := autograd.New()
	padded := paddedTGATLayers(m, g, mb)

	live := rowRange(g, roots)
	for k := layers - 1; k >= 0; k-- {
		block := mb.Layers[k]
		h := m.embed(g, mb, k, live, &CoTrainInfo{})
		if h.Rows() != len(live) {
			t.Fatalf("layer %d embedded %d rows for %d live targets", k, h.Rows(), len(live))
		}
		isLive := make([]bool, block.NumTargets)
		for j, i := range live {
			isLive[i] = true
			if err := sameBits(h.Val.Row(j), padded[k].Val.Row(int(i))); err != nil {
				t.Fatalf("layer %d, live target %d: %v", k, i, err)
			}
		}
		want := append([]int32(nil), live...)
		for _, s := range block.Valid {
			if isLive[s/n] {
				want = append(want, int32(block.NumTargets)+s)
			}
		}
		if k == layers-1 && len(want) != roots+len(block.Valid) {
			t.Fatalf("every root is live: the layer below must run on roots + valid = %d rows, not %d", roots+len(block.Valid), len(want))
		}
		_, _, below := liveSlots(g, block, live)
		if fmt.Sprint(below) != fmt.Sprint(want) {
			t.Fatalf("layer %d asks the layer below for targets %v, want %v", k, below, want)
		}
		if padded := block.NumTargets * (1 + n); len(below) >= padded {
			t.Fatalf("layer %d: all %d padded targets below are live in a sparse batch", k, padded)
		}
		live = below
	}
}

func TestGraphMixerCompactMatchesPaddedBitwise(t *testing.T) {
	rng := mathx.NewRNG(42)
	cfg := GraphMixerConfig{NodeDim: 2, EdgeDim: 3, HiddenDim: 6, TimeDim: 4, Budget: 4}
	m := NewGraphMixer(cfg, rng)
	// A LayerNorm bias away from its zero initialization makes padding
	// tokens contribute to token mixing, as they do after the first step.
	for _, p := range m.Params() {
		for i := range p.Val.Data {
			p.Val.Data[i] += 0.05 * rng.NormFloat64()
		}
	}
	for name, mb := range oracleBatches(rng, 6, 1, 4, 2, 3) {
		mb := mb
		assertBitwise(t, name, m.Params(),
			func(g *autograd.Graph) *autograd.Var { out, _ := m.Forward(g, mb); return out },
			func(g *autograd.Graph) *autograd.Var { return paddedGraphMixerForward(m, g, mb) })
	}
}
