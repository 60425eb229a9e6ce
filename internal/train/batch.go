package train

import (
	"taser/internal/adaptive"
	"taser/internal/autograd"
	"taser/internal/models"
	"taser/internal/sampler"
)

// builtBatch bundles a materialized minibatch with the adaptive-sampler
// state needed for co-training (nil when adaptive neighbor sampling is off).
type builtBatch struct {
	mb  *models.MiniBatch
	sel *adaptive.Selection
	cs  *adaptive.CandidateSet
	gS  *autograd.Graph // sampler graph (separate from the model graph)

	// innerCS holds the candidate sets of hops below the outermost when
	// AdaAllLayers is on. gS's tape references their matrices (Select wraps
	// them via autograd.NewConst), so they must stay out of the pool until
	// after gS.Backward — i.e. until releasePrepared.
	innerCS []*adaptive.CandidateSet
}

// prepared carries one mini-batch through the two-stage construction split
// the pipelined loop relies on. The prepare stage (producer side) runs
// everything that does not read current model/sampler parameters: batch-edge
// choice, root assembly, neighbor finding and feature slicing — the NF and FS
// columns of Table III. The finish stage (consumer side) resolves whatever
// depends on live parameters: the adaptive Selection and the hops below it.
// When adaptive neighbor sampling is off the prepare stage completes the
// whole build and the finish stage is a no-op.
//
// All referenced buffers are owned by the trainer's buildPool; after the
// batch is consumed (or discarded on pipeline shutdown) releasePrepared
// returns them.
type prepared struct {
	edges []int            // training-edge indices (nil for eval batches)
	roots []sampler.Target // [srcs | dsts | negs] root targets

	built *builtBatch // non-nil once construction has finished

	// Adaptive staging: the outermost hop's m-budget finder result and its
	// sliced candidate set, produced ahead of time; the Selection itself is
	// resolved on the consumer so its gradient path sees current parameters.
	outer *sampler.Result
	cs    *adaptive.CandidateSet
}

// BuildMiniBatch materializes an inference minibatch for arbitrary roots
// through the full sampling pipeline (including the adaptive sampler when
// enabled). Exported for downstream applications that embed nodes outside
// the training loop, e.g. recommendation scoring. The returned minibatch is
// owned by the caller (it is never recycled into the trainer's buffer pool).
func (t *Trainer) BuildMiniBatch(roots []sampler.Target) *models.MiniBatch {
	return t.buildMiniBatch(roots).mb
}

// buildMiniBatch runs both construction stages back to back (the synchronous
// path). Callers that want the buffers recycled must releasePrepared the
// enclosing prepared; this helper intentionally does not.
func (t *Trainer) buildMiniBatch(roots []sampler.Target) *builtBatch {
	return t.finishBatch(t.prepareRoots(roots))
}

// prepareBatch is the producer stage for a training batch: assemble roots
// (consuming the trainer RNG's negative draws in batch order) and stage the
// build.
func (t *Trainer) prepareBatch(edges []int) *prepared {
	pb := t.prepareRoots(t.rootsForEdges(edges))
	pb.edges = edges
	return pb
}

// prepareRoots stages construction for arbitrary roots: the full build when
// adaptive neighbor sampling is off, or the outermost hop's candidates
// (NF at budget m + candidate feature slicing) when it is on.
func (t *Trainer) prepareRoots(roots []sampler.Target) *prepared {
	pb := &prepared{roots: roots}
	if t.Sampler == nil {
		t.finishBatch(pb) // parameter-independent: complete it producer-side
		return pb
	}
	pb.outer = t.pool.getResult()
	t.sample(t.Finder, &t.finderMuP, roots, t.Cfg.M, pb.outer)
	pb.cs = t.buildCandidateSet(roots, pb.outer)
	return pb
}

// finishBatch completes construction: the shared static descent
// (buildCore.build), with the adaptive hop plugged in where adaptive neighbor
// sampling applies. The adaptive path resolves the Selection against current
// sampler parameters; it must therefore run on the consumer, serialized with
// optimizer steps.
func (t *Trainer) finishBatch(pb *prepared) *builtBatch {
	if pb.built != nil {
		return pb.built
	}
	out := &builtBatch{}
	if t.Sampler == nil {
		// The whole build runs producer-side on the primary finder.
		out.mb = t.build(pb.roots, t.Finder, &t.finderMuP, nil)
	} else {
		// Checking the reusable sampler graph out here ends the previous
		// step's pass, serialized with SampleLoss/Backward. Only training
		// batches are co-trained: evaluation and inference batches (no
		// edges) draw their Selection on a forward-only pass.
		out.gS = t.samplerGraph(pb.edges == nil)
		// This stage runs while the producer prepares future batches: every
		// hop below the staged one samples the dedicated consumer finder.
		outer := t.layers - 1
		out.mb = t.build(pb.roots, t.finderC, &t.finderMuC, func(l int, targets []sampler.Target) *models.LayerBlock {
			if l != outer && !t.Cfg.AdaAllLayers {
				return nil // adaptive at the outermost hop only: static below it
			}
			return t.adaptiveHop(pb, out, l == outer, targets)
		})
	}
	pb.built = out
	return out
}

// adaptiveHop resolves one hop through the adaptive sampler: m candidates
// (staged ahead by prepareRoots for the outermost hop, found here for inner
// hops) → Selection of n of them → layer block.
func (t *Trainer) adaptiveHop(pb *prepared, out *builtBatch, isOuter bool, targets []sampler.Target) *models.LayerBlock {
	res, cs := pb.outer, pb.cs
	pb.outer, pb.cs = nil, nil
	if res == nil {
		res = t.pool.getResult()
		t.sample(t.finderC, &t.finderMuC, targets, t.Cfg.M, res)
		cs = t.buildCandidateSet(targets, res)
	}
	var sel *adaptive.Selection
	t.time("AS", func() { sel = t.Sampler.Select(out.gS, cs, t.Cfg.N) })
	block := t.blockFromSelection(targets, res, sel)
	if isOuter {
		out.sel, out.cs = sel, cs // retained for co-training
	} else {
		out.innerCS = append(out.innerCS, cs) // gS still references it
		t.Sampler.Recycle(sel)                // inner selections end here
	}
	t.pool.putResult(res)
	return block
}

// releasePrepared returns a batch's pooled buffers, whether or not it was
// finished (the pipeline discards unfinished batches on early shutdown).
func (t *Trainer) releasePrepared(pb *prepared) {
	if pb.built != nil {
		t.release(pb.built.mb)
		t.pool.putSet(pb.built.cs)
		for _, cs := range pb.built.innerCS {
			t.pool.putSet(cs)
		}
		if pb.built.sel != nil {
			t.Sampler.Recycle(pb.built.sel)
			pb.built.sel = nil
		}
	}
	t.pool.putResult(pb.outer)
	t.pool.putSet(pb.cs)
	t.pool.targets.put(pb.roots)
	t.pool.ints.put(pb.edges)
	pb.built, pb.outer, pb.cs, pb.roots, pb.edges = nil, nil, nil, nil, nil
}

// buildCandidateSet turns an m-budget finder result into the adaptive
// sampler's input, slicing candidate node/edge features and the targets' own
// features (the extra traffic that motivates the GPU cache, §III-D).
func (t *Trainer) buildCandidateSet(targets []sampler.Target, res *sampler.Result) *adaptive.CandidateSet {
	cs := t.pool.getSet(len(targets), res.Budget, t.nodeDim, t.edgeDim)
	for i, tg := range targets {
		for j := 0; j < int(res.Counts[i]); j++ {
			s := res.Slot(i, j)
			cs.SetEntry(i, j, res.Nodes[s], tg.Time-res.Times[s])
		}
	}
	cs.FinishMask()
	if t.nodeDim > 0 {
		t.sliceNodes(cs.Nodes, cs.NodeFeat)
		t.sliceTargetNodes(targets, cs.TargetFeat)
	}
	t.sliceEdges(res.Eids, cs.EdgeFeat)
	return cs
}

// blockFromSelection materializes the n-budget layer block from the adaptive
// sampler's chosen candidate slots, then slices the chosen edges' features.
func (t *Trainer) blockFromSelection(targets []sampler.Target, res *sampler.Result, sel *adaptive.Selection) *models.LayerBlock {
	n := t.Cfg.N
	block := t.pool.getBlock(len(targets), n, t.edgeDim)
	eids := t.pool.ids.get(len(targets) * n)[:len(targets)*n]
	for i := range eids {
		eids[i] = -1
	}
	for i, tg := range targets {
		for j, slot := range sel.Chosen[i] {
			s := res.Slot(i, slot)
			block.SetEntry(i, j, res.Nodes[s], tg.Time-res.Times[s])
			eids[i*n+j] = res.Eids[s]
		}
	}
	block.FinishMask()
	t.sliceEdges(eids, block.EdgeFeat)
	t.pool.ids.put(eids)
	return block
}
