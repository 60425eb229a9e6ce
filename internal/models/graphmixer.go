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

// Forward implements TGNN (Eqs. 8–9).
func (m *GraphMixer) Forward(g *autograd.Graph, mb *MiniBatch) (*autograd.Var, *CoTrainInfo) {
	return m.ForwardRoots(g, mb, 0, mb.Roots())
}

// ForwardRoots implements TGNN: the window's roots and the neighbors in
// their valid slots are the only rows it reads.
func (m *GraphMixer) ForwardRoots(g *autograd.Graph, mb *MiniBatch, lo, hi int) (*autograd.Var, *CoTrainInfo) {
	live := rootWindow(g, mb, lo, hi)
	if len(mb.Layers) != 1 {
		panic("models: GraphMixer is single-layer")
	}
	block := mb.Layers[0]
	t, n := len(live), block.Budget
	valid, slots, below := liveSlots(g, block, live)
	h := g.Const(mb.LeafFeat)
	hT, hN := g.GatherRows(h, below[:t]), g.GatherRows(h, below[t:])

	// Fixed time encoding of each valid neighbor's Δt (Eq. 8), computed
	// outside the graph since it carries no parameters; the buffers are
	// graph-lifetime arena scratch.
	dts := g.Scratch(len(valid), 1)
	for i, s := range valid {
		dts.Data[i] = block.DeltaT.Data[s]
	}
	phi := g.Scratch(len(valid), m.cfg.TimeDim)
	m.timeEnc.EncodeRows(phi.Data, dts.Data)

	// Tokens exist for valid slots only; the mixer reads them against their
	// slots of the t·n layout (padding is a zero token) and hands back the
	// valid rows, which the mean reads the same way.
	tokens := m.tokenIn.ApplyParts(g, hN, g.GatherRows(g.Const(block.EdgeFeat), valid), g.Const(phi))
	mixed := m.mixer.Apply(g, tokens, slots, t*n)
	mean := g.GroupMean(mixed, slots, t, n)
	out := g.GELU(m.readout.ApplyParts(g, mean, hT))

	info := &CoTrainInfo{Budget: n, Out: out, Tokens: mixed, Slots: slots}
	return out, info
}

var _ TGNN = (*GraphMixer)(nil)
