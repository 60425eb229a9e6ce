package main

import (
	"taser/internal/adaptive"
	"taser/internal/autograd"
	"taser/internal/models"
	"taser/internal/nn"
	"taser/internal/sampler"
)

// candidatesFrom lays an m-budget finder result out as the adaptive sampler's
// input (features are sliced in by the caller) and returns how many of its
// slots hold a real candidate.
func candidatesFrom(targets []sampler.Target, res *sampler.Result, nodeDim, edgeDim int) (*adaptive.CandidateSet, int) {
	cs := adaptive.NewCandidateSet(len(targets), res.Budget, nodeDim, edgeDim)
	valid := 0
	for i, tg := range targets {
		for j := 0; j < int(res.Counts[i]); j++ {
			s := res.Slot(i, j)
			cs.SetEntry(i, j, res.Nodes[s], tg.Time-res.Times[s])
			valid++
		}
	}
	cs.FinishMask()
	return cs, valid
}

// selectNeighbors draws n of each root's candidates under an
// "adaptive.Select" span.
func selectNeighbors(tr *tracer, parent, op int, s *adaptive.NeighborSampler, g *autograd.Graph,
	cs *adaptive.CandidateSet, n int) *adaptive.Selection {
	id := tr.begin("adaptive.Select", parent, op)
	sel := s.Select(g, cs, n)
	tr.end(id)
	return sel
}

// cotrain is Algorithm 1 lines 12–13 under an "adaptive.cotrain" span: sample
// loss, its backward pass and the sampler's optimizer step. info must come
// from a model forward whose loss has already been back-propagated.
func cotrain(tr *tracer, parent, op int, s *adaptive.NeighborSampler, opt *nn.Adam, g *autograd.Graph,
	info *models.CoTrainInfo, sel *adaptive.Selection, cs *adaptive.CandidateSet) {
	id := tr.begin("adaptive.cotrain", parent, op)
	g.Backward(s.SampleLoss(g, info, sel, cs))
	opt.Step()
	opt.ZeroGrad()
	tr.end(id)
}

// selectorRound is one adaptive mini-batch selection round under an
// "adaptive.selector" span: draw a batch, then re-score it.
func selectorRound(tr *tracer, parent, op int, s *adaptive.MiniBatchSelector, batch int, logits []float64) []int {
	id := tr.begin("adaptive.selector", parent, op)
	edges := s.SampleBatchInto(batch, nil)
	s.Update(edges, logits[:len(edges)])
	tr.end(id)
	return edges
}
