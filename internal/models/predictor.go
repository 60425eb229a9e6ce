package models

import (
	"taser/internal/autograd"
	"taser/internal/mathx"
	"taser/internal/nn"
)

// EdgePredictor scores a (source, destination) embedding pair for dynamic
// link prediction: logit = MLP([h_u ‖ h_v]). Positive and negative edges
// flow through the same decoder; BCE over the logits trains it (§II, §III-A).
type EdgePredictor struct {
	dim int // embedding width d (retained so Clone can rebuild the MLP)
	mlp *nn.MLP
}

// NewEdgePredictor builds the decoder over embeddings of width d.
func NewEdgePredictor(d int, rng *mathx.RNG) *EdgePredictor {
	return &EdgePredictor{dim: d, mlp: nn.NewMLP(2*d, d, 1, rng)}
}

// Score returns B×1 logits for B (src, dst) embedding row pairs.
func (p *EdgePredictor) Score(g *autograd.Graph, src, dst *autograd.Var) *autograd.Var {
	return p.mlp.ApplyParts(g, src, dst)
}

// ScoreGathered scores pairs taken from one embedding matrix by row index:
// pair i is (emb[srcIdx[i]], emb[dstIdx[i]]). This is how the training loop
// scores positives (root u vs root v) and negatives (root u vs root v′)
// from a single forward pass.
func (p *EdgePredictor) ScoreGathered(g *autograd.Graph, emb *autograd.Var, srcIdx, dstIdx []int32) *autograd.Var {
	return p.Score(g, g.GatherRows(emb, srcIdx), g.GatherRows(emb, dstIdx))
}

// Params implements nn.Module.
func (p *EdgePredictor) Params() []*autograd.Var { return p.mlp.Params() }

var _ nn.Module = (*EdgePredictor)(nil)
