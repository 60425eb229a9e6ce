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
// gradient (DESIGN.md §6 has the argument for why they do).

// allRows is the identity index over n rows.
func allRows(n int) []int32 {
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	return idx
}

// maskRows zeroes the rows of x that valid does not name: it gathers the
// named rows and scatters them back, so every other row is +0.
func maskRows(g *autograd.Graph, x *autograd.Var, valid []int32) *autograd.Var {
	return g.ScatterRows(g.GatherRows(x, valid), valid, x.Rows())
}

// paddingBias is the logit bias the padded TGAT forward masks attention
// with, built from the block's valid-slot index: 0 at valid slots, −1e9 at
// padding, T×n.
func paddingBias(block *LayerBlock) *tensor.Matrix {
	bias := tensor.New(block.NumTargets, block.Budget)
	bias.Fill(-1e9)
	for _, s := range block.Valid {
		bias.Data[s] = 0
	}
	return bias
}

// paddedSplit gathers from h, laid out [t target rows | t·n neighbor rows],
// the target rows and the neighbor rows of every slot, padding included.
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
		scores := g.GroupedScore(q, keys, allRows(t*n), n, 1/math.Sqrt(float64(n)))
		scores = g.Add(scores, g.Const(paddingBias(block)))
		attn := g.Reshape(g.SoftmaxSlots(scores, allRows(t*n)), t*n, 1)
		attn = g.Reshape(maskRows(g, attn, block.Valid), t, n)
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
	tokens = maskRows(g, m.tokenIn.Apply(g, tokens), block.Valid)
	// With every row listed as valid the mixer's channel mixing runs on the
	// full layout too.
	mixed := maskRows(g, m.mixer.Apply(g, tokens, allRows(t*n), t*n), block.Valid)
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
			for s, node := range block.NbrNodes {
				if node < 0 {
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

	live := g.RowRange(roots)
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

// poisonSubtree writes NaN into everything under target i of layer k: its
// slots' Δt and edge features, and recursively its own row and its slots'
// rows in the layer underneath, down to the leaf features.
func poisonSubtree(mb *MiniBatch, k int, i int32) {
	block := mb.Layers[k]
	n := int32(block.Budget)
	children := []int32{i}
	for s := i * n; s < (i+1)*n; s++ {
		block.DeltaT.Data[s] = math.NaN()
		for c := range block.EdgeFeat.Row(int(s)) {
			block.EdgeFeat.Row(int(s))[c] = math.NaN()
		}
		children = append(children, int32(block.NumTargets)+s)
	}
	for _, c := range children {
		if k > 0 {
			poisonSubtree(mb, k-1, c)
		} else {
			for j := range mb.LeafFeat.Row(int(c)) {
				mb.LeafFeat.Row(int(c))[j] = math.NaN()
			}
		}
	}
}

// TestTGATKnownRowsStandInForTheirSubtree: a target of the layer under the
// top that its block already holds (LayerBlock.Known, with that layer's own
// output row) is neither computed nor anything under it — its subtree is NaN
// here — yet the root embeddings are bitwise the plain forward's, on a
// recording graph and a forward-only one, and the gradients stay finite. The
// hand-back (CoTrainInfo.Inner) names exactly the live targets not held.
func TestTGATKnownRowsStandInForTheirSubtree(t *testing.T) {
	for _, layers := range []int{2, 3} {
		for _, fill := range []string{"fill=0.3", "fill=1"} {
			for _, every := range []int{2, 1} { // hold every second live target, then all of them
				name := fmt.Sprintf("layers=%d %s every=%d", layers, fill, every)
				rng := mathx.NewRNG(44)
				m := NewTGAT(TGATConfig{NodeDim: 3, EdgeDim: 2, HiddenDim: 6, TimeDim: 4, Layers: layers, Budget: 3}, rng)
				mb := oracleBatches(rng, 4, layers, 3, 3, 2)[fill]
				top := layers - 1

				g := autograd.New()
				want, info := m.Forward(g, mb)
				inner := info.Inner.Val
				computed := info.InnerTargets
				block := mb.Layers[top-1]
				var rest []int32
				for j, i := range computed {
					if j%every == 0 {
						block.AddKnown(i, inner.Row(j))
						poisonSubtree(mb, top-1, i)
					} else {
						rest = append(rest, i)
					}
				}

				for _, forwardOnly := range []bool{false, true} {
					g := autograd.New()
					if forwardOnly {
						g = autograd.NewReusable()
						g.ResetForwardOnly()
					}
					got, info := m.Forward(g, mb)
					if err := sameBits(got.Val.Data, want.Val.Data); err != nil {
						t.Fatalf("%s, forward-only %v: output %v", name, forwardOnly, err)
					}
					if fmt.Sprint(info.InnerTargets) != fmt.Sprint(rest) {
						t.Fatalf("%s: computed %v under the top, want %v", name, info.InnerTargets, rest)
					}
					if forwardOnly {
						continue
					}
					for _, p := range m.Params() {
						p.Grad.Zero()
					}
					coef := tensor.New(got.Rows(), got.Cols())
					coef.Fill(1)
					g.Backward(g.WeightedSumConst(got, coef))
					for pi, p := range m.Params() {
						for _, v := range p.Grad.Data {
							if math.IsNaN(v) || math.IsInf(v, 0) {
								t.Fatalf("%s: gradient of param %d reached a held target's subtree", name, pi)
							}
						}
					}
				}
			}
		}
	}
}
