package models

import (
	"taser/internal/autograd"
	"taser/internal/encoding"
	"taser/internal/mathx"
	"taser/internal/nn"
)

// GraphMixerConfig configures the GraphMixer backbone.
type GraphMixerConfig struct {
	NodeDim   int
	EdgeDim   int
	HiddenDim int
	TimeDim   int
	Budget    int // supporting neighbors (single hop)
}

// GraphMixer is the technically simple one-layer backbone of Cong et al.
// (ICLR 2023): most-recent neighbors, a fixed time encoding (Eq. 8), one
// MLP-Mixer block over the neighborhood tokens, and a mean readout (Eq. 9).
type GraphMixer struct {
	cfg     GraphMixerConfig
	timeEnc *encoding.TimeEncoder
	tokenIn *nn.Linear // (dN+dE+dT) → d token projection
	mixer   *nn.MixerBlock
	readout *nn.Linear // (d+dN) → d combining neighborhood mean with self
}

// NewGraphMixer builds the model.
func NewGraphMixer(cfg GraphMixerConfig, rng *mathx.RNG) *GraphMixer {
	return &GraphMixer{
		cfg:     cfg,
		timeEnc: encoding.NewTimeEncoder(cfg.TimeDim, 0, 0),
		tokenIn: nn.NewLinear(cfg.NodeDim+cfg.EdgeDim+cfg.TimeDim, cfg.HiddenDim, rng),
		mixer:   nn.NewMixerBlock(cfg.Budget, cfg.HiddenDim, 0, 2*cfg.HiddenDim, rng),
		readout: nn.NewLinear(cfg.HiddenDim+cfg.NodeDim, cfg.HiddenDim, rng),
	}
}

// NumLayers implements TGNN.
func (m *GraphMixer) NumLayers() int { return 1 }

// HiddenDim implements TGNN.
func (m *GraphMixer) HiddenDim() int { return m.cfg.HiddenDim }

// Params implements TGNN.
func (m *GraphMixer) Params() []*autograd.Var {
	return nn.CollectParams(m.tokenIn, m.mixer, m.readout)
}

// splitTargetsNbrs gathers from h, laid out [t target rows | t·n neighbor
// rows], the target rows and the neighbor rows of the block's valid slots
// (V rows, in slot order). Index storage comes from the graph's arena (the
// tape borrows it until Reset).
func splitTargetsNbrs(g *autograd.Graph, h *autograd.Var, block *LayerBlock) (hT, hN *autograd.Var) {
	t := block.NumTargets
	idxN := g.Ints(len(block.Valid))
	for i, s := range block.Valid {
		idxN[i] = int32(t) + s
	}
	return g.GatherRows(h, rowRange(g, t)), g.GatherRows(h, idxN)
}

// Forward implements TGNN (Eqs. 8–9).
func (m *GraphMixer) Forward(g *autograd.Graph, mb *MiniBatch) (*autograd.Var, *CoTrainInfo) {
	if err := mb.Validate(); err != nil {
		panic(err)
	}
	if len(mb.Layers) != 1 {
		panic("models: GraphMixer is single-layer")
	}
	block := mb.Layers[0]
	t, n := block.NumTargets, block.Budget
	h := g.Const(mb.LeafFeat)
	valid := block.Valid
	hT, hN := splitTargetsNbrs(g, h, block)

	// Fixed time encoding of each valid neighbor's Δt (Eq. 8), computed
	// outside the graph since it carries no parameters; the buffers are
	// graph-lifetime arena scratch.
	dts := g.Scratch(len(valid), 1)
	for i, s := range valid {
		dts.Data[i] = block.DeltaT.Data[s]
	}
	phi := g.Scratch(len(valid), m.cfg.TimeDim)
	m.timeEnc.EncodeRows(phi.Data, dts.Data)

	// Tokens exist for valid slots only; scattering them into the T·n layout
	// leaves exact zero rows at padding. The mixer's token mixing needs
	// that layout, its channel mixing does not and hands back valid rows,
	// which the mean reads against their slots.
	tokens := m.tokenIn.ApplyParts(g, hN, g.GatherRows(g.Const(block.EdgeFeat), valid), g.Const(phi))
	tokens = g.ScatterRows(tokens, valid, t*n)
	mixed := m.mixer.Apply(g, tokens, valid)
	mean := g.GroupMean(mixed, valid, t, n)
	out := g.GELU(m.readout.ApplyParts(g, mean, hT))

	info := &CoTrainInfo{Budget: n, Out: out, Tokens: mixed, Slots: valid}
	return out, info
}

var _ TGNN = (*GraphMixer)(nil)
