package models

import (
	"math"

	"taser/internal/autograd"
	"taser/internal/mathx"
	"taser/internal/nn"
	"taser/internal/tensor"
)

// LearnableTimeEnc is TGAT's trainable time encoding Φ(Δt) = cos(Δt·w + b)
// (Eq. 3), with w, b ∈ R^d learned jointly with the aggregator.
type LearnableTimeEnc struct {
	W *autograd.Var // 1×d frequencies
	B *autograd.Var // 1×d phases
}

// NewLearnableTimeEnc initializes frequencies on a log-spaced grid (the
// standard TGAT initialization) so the encoder starts with a useful
// multi-scale spectrum instead of random noise.
func NewLearnableTimeEnc(d int, rng *mathx.RNG) *LearnableTimeEnc {
	w := tensor.New(1, d)
	for i := 0; i < d; i++ {
		// 10^(−2i/d): spans unit to ~1/100 frequency.
		w.Data[i] = math.Pow(10, -2*float64(i)/float64(d))
	}
	b := tensor.Randn(1, d, 0.1, rng)
	return &LearnableTimeEnc{W: autograd.NewParam(w), B: autograd.NewParam(b)}
}

// Encode maps a (R×1) constant Δt column to R×d time features.
func (t *LearnableTimeEnc) Encode(g *autograd.Graph, deltaT *tensor.Matrix) *autograd.Var {
	// (R×1)@(1×d) broadcasts Δt across frequencies.
	return g.Cos(g.Affine(g.Const(deltaT), t.W, t.B))
}

// EncodeZeros returns Φ(0) = cos(b) tiled over rows (used for the target's
// own query, Eq. 4). The zero column comes from the graph's arena.
func (t *LearnableTimeEnc) EncodeZeros(g *autograd.Graph, rows int) *autograd.Var {
	return t.Encode(g, g.Scratch(rows, 1))
}

// Params implements nn.Module.
func (t *LearnableTimeEnc) Params() []*autograd.Var { return []*autograd.Var{t.W, t.B} }

var _ nn.Module = (*LearnableTimeEnc)(nil)
