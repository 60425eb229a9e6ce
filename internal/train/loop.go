package train

import (
	"time"

	"taser/internal/autograd"
	"taser/internal/models"
	"taser/internal/sampler"
)

// nextBatchEdges picks the training-edge indices of the next mini-batch:
// chronologically for the baseline (as TGL schedules them), or from the
// importance distribution P when adaptive mini-batch selection is on.
func (t *Trainer) nextBatchEdges() []int {
	b := t.Cfg.BatchSize
	if t.Selector != nil {
		return t.Selector.SampleBatchInto(b, t.pool.ints.get(b))
	}
	if t.cursor >= t.DS.TrainEnd {
		t.cursor = 0
	}
	hi := t.cursor + b
	if hi > t.DS.TrainEnd {
		hi = t.DS.TrainEnd
	}
	edges := t.pool.ints.get(hi - t.cursor)
	for e := t.cursor; e < hi; e++ {
		edges = append(edges, e)
	}
	t.cursor = hi
	return edges
}

// rootsForEdges builds the root target list [srcs | dsts | negs] for a set
// of training edges, all at their interaction timestamps.
func (t *Trainer) rootsForEdges(edges []int) []sampler.Target {
	roots := t.pool.targets.get(3 * len(edges))[:3*len(edges)]
	for i, e := range edges {
		setRootTriple(roots, i, t.DS.Graph.Events[e], t.negativeDst())
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

// consume runs the parameter-dependent half of one training step on a
// prepared batch: finish construction (resolving the adaptive Selection, if
// any), the model update (linkStep.update, the PP bucket), adaptive-sampler
// co-training, and the importance-score update — then recycles the batch's
// buffers.
func (t *Trainer) consume(pb *prepared) float64 {
	built := t.finishBatch(pb)
	b := len(pb.edges)

	// Forward + model loss (Eq. 10) + backward + step: the PP bucket.
	// Everything read after the step (positive logits here, dL/dh below) is
	// copied out or consumed before gM's next checkout, per the §5 contract.
	var loss float64
	var info *models.CoTrainInfo
	t.time("PP", func() {
		var logits *autograd.Var
		loss, logits, info = t.update(t.modelGraph(false), built.mb, b)
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
