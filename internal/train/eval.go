package train

import "taser/internal/sampler"

// Split selects which chronological slice of events to evaluate.
type Split int

const (
	// SplitVal is [TrainEnd, ValEnd).
	SplitVal Split = iota
	// SplitTest is [ValEnd, |E|).
	SplitTest
)

// EvalMRR computes the transductive dynamic-link-prediction Mean Reciprocal
// Rank following DistTGL's protocol (§IV-A): for each evaluated edge
// (u, v, t), the positive destination v is ranked against
// Cfg.EvalNegatives randomly sampled destinations by predictor logit, and
// the reciprocal ranks are averaged. Ties are broken pessimistically
// (the positive ranks below equal-scoring negatives), so random embeddings
// score near chance rather than near 1.
func (t *Trainer) EvalMRR(split Split) float64 {
	lo, hi := t.DS.TrainEnd, t.DS.ValEnd
	if split == SplitTest {
		lo, hi = t.DS.ValEnd, len(t.DS.Graph.Events)
	}
	edges := make([]int, 0, hi-lo)
	for e := lo; e < hi; e++ {
		edges = append(edges, e)
	}
	if t.Cfg.MaxEvalEdges > 0 && len(edges) > t.Cfg.MaxEvalEdges {
		// Deterministic stride subsample keeps the temporal spread.
		stride := float64(len(edges)) / float64(t.Cfg.MaxEvalEdges)
		sub := make([]int, 0, t.Cfg.MaxEvalEdges)
		for i := 0; i < t.Cfg.MaxEvalEdges; i++ {
			sub = append(sub, edges[int(float64(i)*stride)])
		}
		edges = sub
	}

	const chunk = 50
	var sumRR float64
	var count int
	for start := 0; start < len(edges); start += chunk {
		end := start + chunk
		if end > len(edges) {
			end = len(edges)
		}
		sumRR += t.evalChunk(edges[start:end])
		count += end - start
	}
	if count == 0 {
		return 0
	}
	return sumRR / float64(count)
}

// evalChunk embeds a chunk of edges' sources, positives and K negatives in
// one forward pass and returns the summed reciprocal ranks.
func (t *Trainer) evalChunk(edges []int) float64 {
	b := len(edges)
	k := t.Cfg.EvalNegatives
	// Roots: [srcs(b) | positives(b) | negatives(b·k)].
	roots := t.pool.targets.get(b * (2 + k))
	for _, e := range edges {
		ev := t.DS.Graph.Events[e]
		roots = append(roots, sampler.Target{Node: ev.Src, Time: ev.Time})
	}
	for _, e := range edges {
		ev := t.DS.Graph.Events[e]
		roots = append(roots, sampler.Target{Node: ev.Dst, Time: ev.Time})
	}
	for _, e := range edges {
		ev := t.DS.Graph.Events[e]
		for j := 0; j < k; j++ {
			roots = append(roots, sampler.Target{Node: t.negativeDst(), Time: ev.Time})
		}
	}
	pb := t.prepareRoots(roots)
	built := t.finishBatch(pb)
	defer t.releasePrepared(pb)
	// Same reusable graph and pooled index scratch as a training step: the
	// eval path shares the build pool and the arena, so steady-state
	// evaluation allocates like a step instead of rebuilding from scratch —
	// and, forward-only, without a gradient per intermediate.
	g := t.modelGraph(true)
	emb, _ := t.Model.Forward(g, built.mb)

	// Score all (src, candidate) pairs in one shot.
	srcIdx := t.pool.ids.get(b * (1 + k))[:b*(1+k)]
	dstIdx := t.pool.ids.get(b * (1 + k))[:b*(1+k)]
	defer t.pool.ids.put(srcIdx)
	defer t.pool.ids.put(dstIdx)
	for i := 0; i < b; i++ {
		srcIdx[i] = int32(i)
		dstIdx[i] = int32(b + i) // positive
		for j := 0; j < k; j++ {
			p := b + i*k + j
			srcIdx[p] = int32(i)
			dstIdx[p] = int32(2*b + i*k + j)
		}
	}
	logits := t.Pred.ScoreGathered(g, emb, srcIdx, dstIdx)

	var sumRR float64
	for i := 0; i < b; i++ {
		pos := logits.Val.Data[i]
		rank := 1
		for j := 0; j < k; j++ {
			if logits.Val.Data[b+i*k+j] >= pos {
				rank++
			}
		}
		sumRR += 1.0 / float64(rank)
	}
	return sumRR
}

// Run trains for Cfg.Epochs epochs and returns the per-epoch losses plus the
// final validation and test MRR.
func (t *Trainer) Run() (losses []float64, valMRR, testMRR float64) {
	for e := 0; e < t.Cfg.Epochs; e++ {
		res := t.TrainEpoch()
		losses = append(losses, res.MeanLoss)
	}
	return losses, t.EvalMRR(SplitVal), t.EvalMRR(SplitTest)
}
