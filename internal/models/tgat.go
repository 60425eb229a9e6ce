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

// splitTargetsNbrs gathers from h, laid out [t target rows | t·n neighbor
// rows], the target rows and the neighbor rows of the block's valid slots
// (V rows, in slot order). Index storage comes from the graph's arena (the
// tape borrows it until Reset).
func splitTargetsNbrs(g *autograd.Graph, h *autograd.Var, block *LayerBlock) (hT, hN *autograd.Var) {
	t := block.NumTargets
	idxT := g.Ints(t)
	for i := range idxT {
		idxT[i] = int32(i)
	}
	idxN := g.Ints(len(block.Valid))
	for i, s := range block.Valid {
		idxN[i] = int32(t) + s
	}
	return g.GatherRows(h, idxT), g.GatherRows(h, idxN)
}

// Forward implements TGNN (Algorithm: Eqs. 1–2 with the combiner of Eq. 7).
func (m *TGAT) Forward(g *autograd.Graph, mb *MiniBatch) (*autograd.Var, *CoTrainInfo) {
	if err := mb.Validate(); err != nil {
		panic(err)
	}
	if len(mb.Layers) != m.cfg.Layers {
		panic("models: TGAT minibatch layer count mismatch")
	}
	h := g.Const(mb.LeafFeat)
	info := &CoTrainInfo{Budget: mb.Layers[len(mb.Layers)-1].Budget}
	for k, block := range mb.Layers {
		layer := m.layers[k]
		t, n := block.NumTargets, block.Budget
		valid := block.Valid
		hT, hN := splitTargetsNbrs(g, h, block)

		// Messages m_u = { h_u ‖ x_uvt ‖ Φ(Δt) } (Eq. 1), built for the V
		// valid slots only: padding is never encoded, projected or
		// differentiated.
		dt := g.GatherRows(g.Const(block.DeltaT), valid)
		phi := layer.timeEnc.Encode(g, dt.Val)
		msg := g.ConcatCols(hN, g.GatherRows(g.Const(block.EdgeFeat), valid), phi)

		// Query from the target itself with Φ(0) (Eq. 4). Keys and values
		// go back to the T·n layout the grouped kernels read, as exact zero
		// rows at padding.
		q := layer.wq.Apply(g, g.ConcatCols(hT, layer.timeEnc.EncodeZeros(g, t)))
		keys := g.ScatterRows(layer.wk.Apply(g, msg), valid, t*n)
		vals := g.ScatterRows(layer.wv.Apply(g, msg), valid, t*n)

		// Scaled dot-product attention within each neighborhood (Eq. 7),
		// with padding masked out before and after the softmax.
		scores := g.Scale(g.GroupedScore(q, keys, n), 1/math.Sqrt(float64(n)))
		scores = g.Add(scores, g.Const(block.MaskBias))
		attn := g.SoftmaxRows(scores)
		attn = g.Mul(attn, g.Const(block.Mask))
		agg := g.GroupedWeightedSum(attn, vals, n)

		// Post-attention FFN combining with the target's own state.
		h = g.GELU(layer.out.Apply(g, g.ConcatCols(agg, hT)))

		if k == len(mb.Layers)-1 {
			info.Attn, info.Scores, info.Vals = attn, scores, vals
		}
	}
	info.Out = h
	return h, info
}

var _ TGNN = (*TGAT)(nil)
