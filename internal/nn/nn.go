// Package nn provides the neural-network building blocks used by the TGNN
// backbones and the adaptive sampler: Linear layers, MLP-Mixer blocks over
// fixed-size neighborhoods, layer normalization, and the Adam optimizer.
package nn

import (
	"math"

	"taser/internal/autograd"
	"taser/internal/mathx"
	"taser/internal/tensor"
)

// Module is anything exposing trainable parameters.
type Module interface {
	Params() []*autograd.Var
}

// CollectParams flattens the parameters of several modules.
func CollectParams(mods ...Module) []*autograd.Var {
	var out []*autograd.Var
	for _, m := range mods {
		out = append(out, m.Params()...)
	}
	return out
}

// Linear is a fully connected layer y = xW + b.
type Linear struct {
	W *autograd.Var // In×Out
	B *autograd.Var // 1×Out
}

// NewLinear initializes with Xavier/Glorot uniform-equivalent normal scaling.
func NewLinear(in, out int, rng *mathx.RNG) *Linear {
	std := math.Sqrt(2.0 / float64(in+out))
	return &Linear{
		W: autograd.NewParam(tensor.Randn(in, out, std, rng)),
		B: autograd.NewParam(tensor.New(1, out)),
	}
}

// Apply runs the layer on x (B×In) and returns B×Out.
func (l *Linear) Apply(g *autograd.Graph, x *autograd.Var) *autograd.Var {
	return g.Affine(x, l.W, l.B)
}

// ApplyParts runs the layer on the column concatenation of parts (widths
// summing to In) without forming it (Graph.AffineParts).
func (l *Linear) ApplyParts(g *autograd.Graph, parts ...*autograd.Var) *autograd.Var {
	return g.AffineParts(l.W, l.B, parts...)
}

// Params implements Module.
func (l *Linear) Params() []*autograd.Var { return []*autograd.Var{l.W, l.B} }

// LayerNorm holds per-feature gain and bias for row normalization.
type LayerNorm struct {
	Gain *autograd.Var
	Bias *autograd.Var
}

// NewLayerNorm initializes gain=1, bias=0.
func NewLayerNorm(dim int) *LayerNorm {
	gain := tensor.New(1, dim)
	gain.Fill(1)
	return &LayerNorm{
		Gain: autograd.NewParam(gain),
		Bias: autograd.NewParam(tensor.New(1, dim)),
	}
}

// Apply normalizes each row of x.
func (l *LayerNorm) Apply(g *autograd.Graph, x *autograd.Var) *autograd.Var {
	return g.LayerNormRows(x, l.Gain, l.Bias)
}

// Params implements Module.
func (l *LayerNorm) Params() []*autograd.Var { return []*autograd.Var{l.Gain, l.Bias} }

// MLP is a two-layer perceptron with a GELU hidden activation.
type MLP struct {
	L1, L2 *Linear
}

// NewMLP builds in→hidden→out.
func NewMLP(in, hidden, out int, rng *mathx.RNG) *MLP {
	return &MLP{L1: NewLinear(in, hidden, rng), L2: NewLinear(hidden, out, rng)}
}

// Apply runs the MLP on x.
func (m *MLP) Apply(g *autograd.Graph, x *autograd.Var) *autograd.Var {
	return m.ApplyParts(g, x)
}

// ApplyParts runs the MLP on the column concatenation of parts without
// forming it: the first layer takes the parts (Linear.ApplyParts).
func (m *MLP) ApplyParts(g *autograd.Graph, parts ...*autograd.Var) *autograd.Var {
	return m.L2.Apply(g, g.GELU(m.L1.ApplyParts(g, parts...)))
}

// Params implements Module.
func (m *MLP) Params() []*autograd.Var { return CollectParams(m.L1, m.L2) }

// MixerBlock is a 1-layer MLP-Mixer over a neighborhood of K tokens with C
// channels (Tolstikhin et al.), as used by GraphMixer's aggregator (Eq. 9)
// and the adaptive sampler's decoder (Eq. 16). Input is (B·K)×C with each
// root's K neighbor tokens stored consecutively.
type MixerBlock struct {
	K int // tokens per group

	normToken   *LayerNorm
	tokenUp     *autograd.Var // Kh×K token-mixing weights (shared across groups)
	tokenDown   *autograd.Var // K×Kh
	normChannel *LayerNorm
	channelMLP  *MLP
}

// NewMixerBlock builds a mixer over K-token groups of C channels.
// tokenHidden and channelHidden default to K/2 (min 1) and 4·C when zero,
// matching the ratios in the MLP-Mixer paper at this scale.
func NewMixerBlock(k, c, tokenHidden, channelHidden int, rng *mathx.RNG) *MixerBlock {
	if tokenHidden <= 0 {
		tokenHidden = mathx.MaxInt(1, k/2)
	}
	if channelHidden <= 0 {
		channelHidden = 4 * c
	}
	stdUp := math.Sqrt(2.0 / float64(k+tokenHidden))
	stdDown := math.Sqrt(2.0 / float64(k+tokenHidden))
	return &MixerBlock{
		K:           k,
		normToken:   NewLayerNorm(c),
		tokenUp:     autograd.NewParam(tensor.Randn(tokenHidden, k, stdUp, rng)),
		tokenDown:   autograd.NewParam(tensor.Randn(k, tokenHidden, stdDown, rng)),
		normChannel: NewLayerNorm(c),
		channelMLP:  NewMLP(c, channelHidden, c, rng),
	}
}

// Apply mixes tokens then channels, each with a residual connection. x is
// (B·K)×C with exact zero rows at padding tokens; valid lists the real
// tokens' row indices, ascending. Token mixing runs on the full K-token
// layout — a padding token's LayerNorm output is the bias, not zero, and
// that legitimately mixes into its group — while channel mixing is row-wise,
// so it runs on (and Apply returns) the len(valid)×C valid rows only.
func (m *MixerBlock) Apply(g *autograd.Graph, x *autograd.Var, valid []int32) *autograd.Var {
	// Token mixing: for each group, tokenDown @ GELU(tokenUp @ norm(x)).
	h := m.normToken.Apply(g, x)
	h = g.GroupedMatMulLeft(m.tokenUp, h, m.K)
	h = g.GELU(h)
	h = g.GroupedMatMulLeft(m.tokenDown, h, m.tokenUp.Rows())
	x = g.GatherRows(g.Add(x, h), valid)
	// Channel mixing: row-wise MLP.
	h2 := m.channelMLP.Apply(g, m.normChannel.Apply(g, x))
	return g.Add(x, h2)
}

// Params implements Module.
func (m *MixerBlock) Params() []*autograd.Var {
	out := []*autograd.Var{m.tokenUp, m.tokenDown}
	out = append(out, m.normToken.Params()...)
	out = append(out, m.normChannel.Params()...)
	out = append(out, m.channelMLP.Params()...)
	return out
}
