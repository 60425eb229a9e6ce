package train

import (
	"taser/internal/models"
	"taser/internal/sampler"
	"taser/internal/tensor"
)

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

// evalChunk ranks a chunk of edges: one build of their sources, positives
// and K negatives, embedded window by window (embedWindows), then every
// (source, candidate) pair scored in one pass. It returns the summed
// reciprocal ranks.
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
	// One build for the chunk, through the same pool as a training step:
	// the finder and feature slicing run once over every root, as the GPU
	// finder's streams (seeded per call and block) require.
	built := t.buildBatch(roots, nil)
	defer t.releaseBatch(&built)
	emb := t.embedWindows(built.mb)
	defer t.pool.putMat(emb)

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
	g := t.modelGraph(true)
	logits := t.Pred.ScoreGathered(g, g.Const(emb), srcIdx, dstIdx)

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

// embedWindows embeds mb's roots into a pooled roots×d matrix (hand it back
// with putMat) in windows of at most windowRoots roots, each a ForwardRoots
// pass on a fresh forward-only checkout of the model graph whose rows are
// copied out before the next: however many negatives evaluation ranks, its
// passes stay within a step's size, and the rows are bitwise one Forward's.
func (t *Trainer) embedWindows(mb *models.MiniBatch) *tensor.Matrix {
	roots, d := mb.Roots(), t.Model.HiddenDim()
	emb := t.pool.getMat(roots, d)
	w := t.windowRoots()
	for lo := 0; lo < roots; lo += w {
		hi := min(lo+w, roots)
		out, _ := t.Model.ForwardRoots(t.modelGraph(true), mb, lo, hi)
		copy(emb.Data[lo*d:hi*d], out.Val.Data)
	}
	return emb
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
