package train

import (
	"taser/internal/autograd"
	"taser/internal/mathx"
	"taser/internal/models"
	"taser/internal/nn"
	"taser/internal/sampler"
	"taser/internal/tgraph"
)

// clipNorm is the global gradient-norm clip of every optimizer in the package
// (backbone + decoder offline and online, and the co-trained sampler).
const clipNorm = 5

// linkStep is the model update of Algorithm 1 — the self-supervised
// link-prediction objective, forward–backward and one Adam step — and the one
// implementation of it: Trainer.TrainStep wraps it with PP timing, sampler
// co-training and the importance-score update, FineTuner.Step with the
// assembly of streamed events into roots. The index and label scratch is
// reused across steps; callers serialize steps by construction.
//
// The Trainer embeds it; the exported fields are part of its surface.
type linkStep struct {
	Model    models.TGNN
	Pred     *models.EdgePredictor
	OptModel *nn.Adam

	srcIdx, dstIdx []int32
	labels         []float64
}

// update trains on one minibatch whose roots are [b srcs | b dsts | b negs]:
// forward on g, BCE over the b positive and b negative pairs (Eq. 10),
// backward, optimizer step. It returns the batch loss, the pair logits
// (positives first) and the forward's co-training handle; the latter two
// live in g and are valid until its next checkout.
func (s *linkStep) update(g *autograd.Graph, mb *models.MiniBatch, b int) (float64, *autograd.Var, *models.CoTrainInfo) {
	emb, info := s.Model.Forward(g, mb)
	s.srcIdx = grow(s.srcIdx, 2*b)
	s.dstIdx = grow(s.dstIdx, 2*b)
	s.labels = grow(s.labels, 2*b)
	for i := 0; i < b; i++ {
		s.srcIdx[i], s.dstIdx[i], s.labels[i] = int32(i), int32(b+i), 1 // positive
		s.srcIdx[b+i], s.dstIdx[b+i], s.labels[b+i] = int32(i), int32(2*b+i), 0
	}
	logits := s.Pred.ScoreGathered(g, emb, s.srcIdx, s.dstIdx)
	lossVar := g.BCEWithLogits(logits, s.labels)
	loss := lossVar.Val.Data[0]
	g.Backward(lossVar)
	s.OptModel.Step()
	s.OptModel.ZeroGrad()
	return loss, logits, info
}

// grow returns s resized to length n, reusing capacity.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// setRootTriple writes event ev and its negative destination as entry i of a
// root list laid out [srcs | dsts | negs], all three at ev's timestamp.
func setRootTriple(roots []sampler.Target, i int, ev tgraph.Event, neg int32) {
	b := len(roots) / 3
	roots[i] = sampler.Target{Node: ev.Src, Time: ev.Time}
	roots[b+i] = sampler.Target{Node: ev.Dst, Time: ev.Time}
	roots[2*b+i] = sampler.Target{Node: neg, Time: ev.Time}
}

// negativeDst draws a negative destination: uniform over the destination
// partition [numSrc, numNodes) of a bipartite graph, over every node when
// numSrc is 0.
func negativeDst(rng *mathx.RNG, numSrc, numNodes int) int32 {
	return int32(numSrc + rng.Intn(numNodes-numSrc))
}

// graphHolder lazily creates one reusable arena-backed autograd graph and
// checks it out pass by pass (DESIGN.md §5). A checkout ends the previous
// pass: its tape is reset and its intermediates recycled, so whatever must
// survive (losses, logits, importance scores) is copied out before the next
// one. Holders are single-goroutine state, like the loops that own them.
type graphHolder struct{ g *autograd.Graph }

// checkout resets the graph for a recording pass, or forward-only (no
// gradient matrices, no tape) for a pass that never calls Backward. fresh
// bypasses reuse with a new unpooled graph — the test-side oracle that pins
// the reused path bitwise-equal to the from-scratch path.
func (h *graphHolder) checkout(forwardOnly, fresh bool) *autograd.Graph {
	g := h.g
	if fresh {
		g = autograd.New()
	} else if g == nil {
		g = autograd.NewReusable()
		h.g = g
	}
	if forwardOnly {
		g.ResetForwardOnly()
	} else {
		g.Reset()
	}
	return g
}
