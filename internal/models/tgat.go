package models

import (
	"math"

	"taser/internal/autograd"
	"taser/internal/mathx"
	"taser/internal/nn"
)

// TGATConfig configures the TGAT backbone.
type TGATConfig struct {
	NodeDim   int // raw node-feature width (0 when the dataset has none)
	EdgeDim   int // raw edge-feature width (0 when the dataset has none)
	HiddenDim int // embedding width d
	TimeDim   int // time-encoding width dT
	Layers    int // hop count (paper default: 2)
	Budget    int // supporting neighbors per hop (paper default: 10)
}

// tgatLayer holds one hop's attention parameters (Eqs. 4–7).
type tgatLayer struct {
	timeEnc *LearnableTimeEnc
	wq      *nn.Linear // (inDim+dT) → d
	wk      *nn.Linear // (inDim+dE+dT) → d
	wv      *nn.Linear // (inDim+dE+dT) → d
	out     *nn.Linear // (d+inDim) → d, the post-attention FFN
}

// TGAT is the 2-layer attention TGNN of Xu et al. (ICLR 2020), the stronger
// of the paper's two backbones for multi-hop aggregation.
type TGAT struct {
	cfg    TGATConfig
	layers []*tgatLayer
}

// NewTGAT builds the model.
func NewTGAT(cfg TGATConfig, rng *mathx.RNG) *TGAT {
	if cfg.Layers <= 0 {
		cfg.Layers = 2
	}
	m := &TGAT{cfg: cfg}
	inDim := cfg.NodeDim
	for l := 0; l < cfg.Layers; l++ {
		m.layers = append(m.layers, &tgatLayer{
			timeEnc: NewLearnableTimeEnc(cfg.TimeDim, rng),
			wq:      nn.NewLinear(inDim+cfg.TimeDim, cfg.HiddenDim, rng),
			wk:      nn.NewLinear(inDim+cfg.EdgeDim+cfg.TimeDim, cfg.HiddenDim, rng),
			wv:      nn.NewLinear(inDim+cfg.EdgeDim+cfg.TimeDim, cfg.HiddenDim, rng),
			out:     nn.NewLinear(cfg.HiddenDim+inDim, cfg.HiddenDim, rng),
		})
		inDim = cfg.HiddenDim
	}
	return m
}

// NumLayers implements TGNN.
func (m *TGAT) NumLayers() int { return m.cfg.Layers }

// HiddenDim implements TGNN.
func (m *TGAT) HiddenDim() int { return m.cfg.HiddenDim }

// Params implements TGNN.
func (m *TGAT) Params() []*autograd.Var {
	var out []*autograd.Var
	for _, l := range m.layers {
		out = append(out, nn.CollectParams(l.timeEnc, l.wq, l.wk, l.wv, l.out)...)
	}
	return out
}

// Forward implements TGNN (Algorithm: Eqs. 1–2 with the combiner of Eq. 7).
func (m *TGAT) Forward(g *autograd.Graph, mb *MiniBatch) (*autograd.Var, *CoTrainInfo) {
	return m.ForwardRoots(g, mb, 0, mb.Roots())
}

// ForwardRoots implements TGNN.
//
// Only live targets are embedded. The window's roots are live; a target of
// layer k−1 is live if it is a live target of layer k (its own
// previous-layer state) or the neighbor in a valid slot of one. The rest of
// the padded layout — the other roots' subtrees, and the sentinel targets
// padded slots turn into with everything sampled under them — is read by
// nothing above, so no layer runs a row for it.
func (m *TGAT) ForwardRoots(g *autograd.Graph, mb *MiniBatch, lo, hi int) (*autograd.Var, *CoTrainInfo) {
	live := rootWindow(g, mb, lo, hi)
	if len(mb.Layers) != m.cfg.Layers {
		panic("models: TGAT minibatch layer count mismatch")
	}
	top := len(mb.Layers) - 1
	info := &CoTrainInfo{Budget: mb.Layers[top].Budget}
	info.Out = m.embed(g, mb, top, live, info)
	return info.Out, info
}

// embed returns layer k's embeddings of the targets live names, one row each
// in that order. A target the block already holds (LayerBlock.Known) costs a
// row copy: neither it nor anything under it is computed. With none held
// among live, the layer's output is returned as computed.
func (m *TGAT) embed(g *autograd.Graph, mb *MiniBatch, k int, live []int32, info *CoTrainInfo) *autograd.Var {
	block := mb.Layers[k]
	compute, at := splitKnown(g, block, live)
	h := m.aggregate(g, mb, k, compute, info)
	if k == len(mb.Layers)-2 {
		info.Inner, info.InnerTargets = h, compute
	}
	if at == nil {
		return h
	}
	// The computed rows go to their places among live, and the held rows,
	// constants, into the others: ScatterRows' backward reads only the rows
	// it scattered, so what the gaps hold is no input of it.
	out := g.ScatterRows(h, at, len(live))
	j := 0 // block.Known[j] is the next held target
	for p, i := range live {
		if len(at) > 0 && at[0] == int32(p) {
			at = at[1:]
			continue
		}
		for block.Known[j] < i {
			j++
		}
		copy(out.Val.Row(p), block.KnownRows.Row(j))
	}
	return out
}

// splitKnown divides live (ascending) into the targets the block's layer
// computes and those whose row block.Known holds: compute keeps live's order and at[j] is
// compute[j]'s position in live. When live holds none, compute is live and at
// is nil. Storage is the graph's, like liveSlots'.
func splitKnown(g *autograd.Graph, block *LayerBlock, live []int32) (compute, at []int32) {
	known := block.Known
	if len(known) == 0 {
		return live, nil
	}
	compute, at = g.Ints(len(live))[:0], g.Ints(len(live))[:0]
	for p, i := range live {
		for len(known) > 0 && known[0] < i {
			known = known[1:]
		}
		if len(known) > 0 && known[0] == i {
			continue
		}
		compute, at = append(compute, i), append(at, int32(p))
	}
	if len(compute) == len(live) {
		return live, nil
	}
	return compute, at
}

// aggregate computes layer k's embeddings of the targets live names, one row
// each in that order (Eqs. 1–7), from the layer underneath.
func (m *TGAT) aggregate(g *autograd.Graph, mb *MiniBatch, k int, live []int32, info *CoTrainInfo) *autograd.Var {
	layer, block := m.layers[k], mb.Layers[k]
	t, n := len(live), block.Budget
	valid, slots, below := liveSlots(g, block, live)

	// The layer underneath hands back exactly the rows below names, targets
	// first; raw features are still in the padded layout and are picked out
	// of it.
	h, rows := g.Const(mb.LeafFeat), below
	if k > 0 {
		h, rows = m.embed(g, mb, k-1, below, info), g.RowRange(len(below))
	}
	hT, hN := g.GatherRows(h, rows[:t]), g.GatherRows(h, rows[t:])

	// Messages m_u = { h_u ‖ x_uvt ‖ Φ(Δt) } (Eq. 1), for the valid slots of
	// live targets only: padding is never encoded, projected or
	// differentiated. The projections take the message as its three parts;
	// it is never concatenated.
	dt := g.GatherRows(g.Const(block.DeltaT), valid)
	phi := layer.timeEnc.Encode(g, dt.Val)
	edge := g.GatherRows(g.Const(block.EdgeFeat), valid)

	// Query from the target itself with Φ(0) (Eq. 4); keys and values for
	// the valid slots only, one row each.
	q := layer.wq.ApplyParts(g, hT, layer.timeEnc.EncodeZeros(g, t))
	keys := layer.wk.ApplyParts(g, hN, edge, phi)
	vals := layer.wv.ApplyParts(g, hN, edge, phi)

	// Scaled dot-product attention within each neighborhood (Eq. 7). The
	// reductions read the key and value rows against their slots of the t·n
	// layout, and the softmax normalizes over those slots only: a padded
	// slot scores +0 and gets weight +0.
	scores := g.GroupedScore(q, keys, slots, n, 1/math.Sqrt(float64(n)))
	attn := g.SoftmaxSlots(scores, slots)
	agg := g.GroupedWeightedSum(attn, vals, slots, n)

	if k == len(mb.Layers)-1 {
		info.Attn, info.Scores, info.Vals, info.Slots = attn, scores, vals, slots
	}
	// Post-attention FFN combining with the target's own state.
	return g.GELU(layer.out.ApplyParts(g, agg, hT))
}

var _ TGNN = (*TGAT)(nil)
