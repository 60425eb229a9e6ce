package train

import (
	"time"

	"taser/internal/models"
	"taser/internal/sampler"
)

// nextBatchEdges picks the training-edge indices of the next mini-batch:
// chronologically for the baseline (as TGL schedules them), or from the
// importance distribution P when adaptive mini-batch selection is on.
func (t *Trainer) nextBatchEdges() []int {
	b := t.Cfg.BatchSize
	if t.Selector != nil {
		return t.Selector.SampleBatchInto(b, t.pool.getInts(b))
	}
	if t.cursor >= t.DS.TrainEnd {
		t.cursor = 0
	}
	hi := t.cursor + b
	if hi > t.DS.TrainEnd {
		hi = t.DS.TrainEnd
	}
	edges := t.pool.getInts(hi - t.cursor)
	for e := t.cursor; e < hi; e++ {
		edges = append(edges, e)
	}
	t.cursor = hi
	return edges
}

// rootsForEdges builds the root target list [srcs | dsts | negs] for a set
// of training edges, all at their interaction timestamps.
func (t *Trainer) rootsForEdges(edges []int) []sampler.Target {
	b := len(edges)
	roots := t.pool.getTargets(3 * b)[:3*b]
	for i, e := range edges {
		ev := t.DS.Graph.Events[e]
		roots[i] = sampler.Target{Node: ev.Src, Time: ev.Time}
		roots[b+i] = sampler.Target{Node: ev.Dst, Time: ev.Time}
		roots[2*b+i] = sampler.Target{Node: t.negativeDst(), Time: ev.Time}
	}
	return roots
}

// TrainStep runs one iteration of Algorithm 1 and returns the model loss.
// It is the synchronous path: prepare and consume back to back on the
// calling goroutine. See Pipeline for the overlapped variant.
func (t *Trainer) TrainStep() float64 {
	edges := t.nextBatchEdges()
	if len(edges) == 0 {
		return 0
	}
	return t.consume(t.prepareBatch(edges))
}

// grow returns s resized to length n, reusing capacity.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// consume runs the parameter-dependent half of one training step on a
// prepared batch: finish construction (resolving the adaptive Selection, if
// any), forward/backward/step (the PP bucket), adaptive-sampler co-training,
// and the importance-score update — then recycles the batch's buffers.
func (t *Trainer) consume(pb *prepared) float64 {
	built := t.finishBatch(pb)
	b := len(pb.edges)

	// Forward + model loss (Eq. 10) + backward + step: the PP bucket.
	var loss float64
	var info *models.CoTrainInfo
	t.time("PP", func() {
		// Reusable arena-backed graph: checkout ends the previous step's
		// pass. Everything read after Backward (posLogits, importance
		// scores) is copied out below, per the §7 ownership contract.
		gM := t.modelGraph(false)
		emb, fwdInfo := t.Model.Forward(gM, built.mb)
		info = fwdInfo
		t.srcIdx = grow(t.srcIdx, 2*b)
		t.dstIdx = grow(t.dstIdx, 2*b)
		t.labels = grow(t.labels, 2*b)
		for i := 0; i < b; i++ {
			t.srcIdx[i], t.dstIdx[i], t.labels[i] = int32(i), int32(b+i), 1 // positive
			t.srcIdx[b+i], t.dstIdx[b+i], t.labels[b+i] = int32(i), int32(2*b+i), 0
		}
		logits := t.Pred.ScoreGathered(gM, emb, t.srcIdx, t.dstIdx)
		lossVar := gM.BCEWithLogits(logits, t.labels)
		loss = lossVar.Val.Data[0]
		gM.Backward(lossVar)
		t.OptModel.Step()
		t.OptModel.ZeroGrad()

		t.posLogits = grow(t.posLogits, b)
		copy(t.posLogits, logits.Val.Data[:b])
	})

	// Co-train the adaptive sampler (Algorithm 1 lines 12–13) while
	// info.Out.Grad still holds dL/dh. Charged to AS.
	if built.sel != nil {
		t.time("AS", func() {
			ls := t.Sampler.SampleLoss(built.gS, info, built.sel, built.cs)
			built.gS.Backward(ls)
			t.OptSampler.Step()
			t.OptSampler.ZeroGrad()
		})
	}

	// Update importance scores with fresh positive logits (Eq. 11). In the
	// pipelined loop, batches already in flight were drawn before this update
	// lands — the bounded staleness documented in DESIGN.md.
	if t.Selector != nil {
		t.Selector.Update(pb.edges, t.posLogits[:b])
	}
	t.releasePrepared(pb)
	return loss
}

// EpochResult summarizes one training epoch.
type EpochResult struct {
	MeanLoss float64
	Steps    int
	Duration time.Duration
}

// TrainEpoch runs one pass over the training set (⌈train/batch⌉ steps) and
// advances the feature cache epoch (Algorithm 3 lines 8–10).
func (t *Trainer) TrainEpoch() EpochResult {
	steps := (t.DS.TrainEnd + t.Cfg.BatchSize - 1) / t.Cfg.BatchSize
	start := time.Now()
	var total float64
	for s := 0; s < steps; s++ {
		total += t.TrainStep()
	}
	t.endEpoch()
	return EpochResult{MeanLoss: total / float64(steps), Steps: steps, Duration: time.Since(start)}
}

// endEpoch advances the cache epoch and rewinds chronological state.
func (t *Trainer) endEpoch() {
	t.EdgeStore.EndEpoch()
	for _, f := range []sampler.Finder{t.Finder, t.finderC} {
		if tgl, ok := f.(*sampler.TGLFinder); ok {
			tgl.Reset() // new epoch restarts chronological order
		}
	}
	t.cursor = 0
}
