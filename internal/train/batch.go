package train

import (
	"sync"

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
	t.time("NF", func() { t.sampleLocked(t.Finder, &t.finderMuP, roots, t.Cfg.M, pb.outer) })
	pb.cs = t.buildCandidateSet(roots, pb.outer)
	return pb
}

// finishBatch completes construction. For the adaptive path this resolves the
// Selection against current sampler parameters and descends the remaining
// hops; it must therefore run on the consumer, serialized with optimizer
// steps.
func (t *Trainer) finishBatch(pb *prepared) *builtBatch {
	if pb.built != nil {
		return pb.built
	}
	out := &builtBatch{}
	if t.Sampler != nil {
		// Checking the reusable sampler graph out here ends the previous
		// step's pass; finishBatch always runs consumer-side when the
		// adaptive sampler is on, serialized with SampleLoss/Backward. Only
		// training batches are co-trained: evaluation and inference batches
		// (no edges) draw their Selection on a forward-only pass.
		out.gS = t.samplerGraph(pb.edges == nil)
	}

	layers := t.Model.NumLayers()
	blocks := make([]*models.LayerBlock, layers) // [0] = innermost
	targets := pb.roots
	// With adaptive sampling on, this stage runs consumer-side while the
	// producer prepares future batches: use the dedicated consumer finder so
	// both sampling streams stay deterministic. Otherwise the whole build
	// runs producer-side on the primary finder.
	finder, finderMu := t.Finder, &t.finderMuP
	if t.Sampler != nil {
		finder, finderMu = t.finderC, &t.finderMuC
	}
	var spent []sampler.Target // pooled intermediate target list to recycle
	for l := layers - 1; l >= 0; l-- {
		isOuter := l == layers-1
		useAda := t.Sampler != nil && (isOuter || t.Cfg.AdaAllLayers)
		var block *models.LayerBlock
		if useAda {
			res, cs := pb.outer, pb.cs
			if res == nil {
				res = t.pool.getResult()
				t.time("NF", func() { t.sampleLocked(finder, finderMu, targets, t.Cfg.M, res) })
				cs = t.buildCandidateSet(targets, res)
			}
			var sel *adaptive.Selection
			t.time("AS", func() { sel = t.Sampler.Select(out.gS, cs, t.Cfg.N) })
			block = t.blockFromSelection(targets, res, sel)
			if isOuter {
				out.sel, out.cs = sel, cs // retained for co-training
			} else {
				out.innerCS = append(out.innerCS, cs) // gS still references it
				t.Sampler.Recycle(sel)                // inner selections end here
			}
			t.pool.putResult(res)
			pb.outer, pb.cs = nil, nil
		} else {
			res := t.pool.getResult()
			t.time("NF", func() { t.sampleLocked(finder, finderMu, targets, t.Cfg.N, res) })
			block = t.blockFromResult(targets, res)
			t.sliceBlockEdges(block, res.Eids)
			t.pool.putResult(res)
		}
		blocks[l] = block
		next := t.pool.getTargets(len(targets) + len(block.NbrNodes))
		next = appendExtendedTargets(next, targets, block)
		t.pool.putTargets(spent)
		spent, targets = next, next
	}

	// Leaf features: h⁰ for the innermost targets followed by their
	// neighbors — which is exactly the final extended target list.
	leaf := t.pool.getMat(len(targets), t.DS.Spec.NodeDim)
	ids := t.pool.getIDs(len(targets))
	for _, tg := range targets {
		ids = append(ids, tg.Node)
	}
	t.sliceNodes(ids, leaf)
	t.pool.putIDs(ids)
	t.pool.putTargets(spent)

	out.mb = &models.MiniBatch{Layers: blocks, LeafFeat: leaf}
	pb.built = out
	return out
}

// releasePrepared returns a batch's pooled buffers, whether or not it was
// finished (the pipeline discards unfinished batches on early shutdown).
func (t *Trainer) releasePrepared(pb *prepared) {
	if pb.built != nil {
		for _, blk := range pb.built.mb.Layers {
			t.pool.putBlock(blk)
		}
		t.pool.putMat(pb.built.mb.LeafFeat)
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
	t.pool.putTargets(pb.roots)
	t.pool.putInts(pb.edges)
	pb.built, pb.outer, pb.cs, pb.roots, pb.edges = nil, nil, nil, nil, nil
}

// sampleLocked runs a neighbor finder under that instance's mutex. Each
// pipeline side owns a dedicated finder instance (Finder for the producer,
// finderC for consumer-side adaptive hops) with its own lock, so the two
// sides' NF phases overlap while each instance's sampling stream stays a
// function of its own call order.
func (t *Trainer) sampleLocked(f sampler.Finder, mu *sync.Mutex, targets []sampler.Target, budget int, out *sampler.Result) {
	mu.Lock()
	defer mu.Unlock()
	if err := f.Sample(targets, budget, t.policy, out); err != nil {
		panic(err)
	}
}

// extendTargets appends the block's selected neighbors as next-hop targets.
// A neighbor (u, t_u) is embedded at its interaction time t_u. Padded slots
// become the sentinel target (node 0, time 0), whose temporal neighborhood
// is empty; its (meaningless) embedding is excluded by the outer layer mask.
func extendTargets(targets []sampler.Target, block *models.LayerBlock) []sampler.Target {
	next := make([]sampler.Target, 0, len(targets)+len(block.NbrNodes))
	return appendExtendedTargets(next, targets, block)
}

// appendExtendedTargets is extendTargets into a caller-owned slice.
func appendExtendedTargets(next, targets []sampler.Target, block *models.LayerBlock) []sampler.Target {
	next = append(next, targets...)
	for i := 0; i < block.NumTargets; i++ {
		for j := 0; j < block.Budget; j++ {
			s := i*block.Budget + j
			node := block.NbrNodes[s]
			if node < 0 {
				next = append(next, sampler.Target{Node: 0, Time: 0})
				continue
			}
			// Δt = t_target − t_edge ⇒ t_edge = t_target − Δt.
			next = append(next, sampler.Target{
				Node: node,
				Time: targets[i].Time - block.DeltaT.Data[s],
			})
		}
	}
	return next
}

// blockFromResult converts a finder result (budget n) directly into a layer
// block (the non-adaptive path).
func (t *Trainer) blockFromResult(targets []sampler.Target, res *sampler.Result) *models.LayerBlock {
	block := t.pool.getBlock(len(targets), res.Budget, t.DS.Spec.EdgeDim)
	fillBlockFromResult(block, targets, res)
	return block
}

// fillBlockFromResult copies a finder result into a zeroed block of matching
// shape and finishes the mask. Shared by the training build path and the
// detached InferenceBuilder, so served minibatches are constructed by the
// byte-identical kernel the offline loop uses.
func fillBlockFromResult(block *models.LayerBlock, targets []sampler.Target, res *sampler.Result) {
	for i, tg := range targets {
		for j := 0; j < int(res.Counts[i]); j++ {
			s := res.Slot(i, j)
			block.SetEntry(i, j, res.Nodes[s], tg.Time-res.Times[s])
		}
	}
	block.FinishMask()
}

// sliceBlockEdges fetches the block's edge features (eids aligned with the
// block layout; −1 yields zero rows).
func (t *Trainer) sliceBlockEdges(block *models.LayerBlock, eids []int32) {
	if t.DS.Spec.EdgeDim == 0 {
		return
	}
	t.sliceEdges(eids, block.EdgeFeat)
}

// buildCandidateSet turns an m-budget finder result into the adaptive
// sampler's input, slicing candidate node/edge features and the targets' own
// features (the extra traffic that motivates the GPU cache, §III-D).
func (t *Trainer) buildCandidateSet(targets []sampler.Target, res *sampler.Result) *adaptive.CandidateSet {
	cs := t.pool.getSet(len(targets), res.Budget, t.DS.Spec.NodeDim, t.DS.Spec.EdgeDim)
	for i, tg := range targets {
		for j := 0; j < int(res.Counts[i]); j++ {
			s := res.Slot(i, j)
			cs.SetEntry(i, j, res.Nodes[s], tg.Time-res.Times[s])
		}
	}
	cs.FinishMask()
	if t.DS.Spec.NodeDim > 0 {
		t.sliceNodes(cs.Nodes, cs.NodeFeat)
		ids := t.pool.getIDs(len(targets))
		for _, tg := range targets {
			ids = append(ids, tg.Node)
		}
		t.sliceNodes(ids, cs.TargetFeat)
		t.pool.putIDs(ids)
	}
	if t.DS.Spec.EdgeDim > 0 {
		t.sliceEdges(res.Eids, cs.EdgeFeat)
	}
	return cs
}

// blockFromSelection materializes the n-budget layer block from the adaptive
// sampler's chosen candidate slots, then slices the chosen edges' features.
func (t *Trainer) blockFromSelection(targets []sampler.Target, res *sampler.Result, sel *adaptive.Selection) *models.LayerBlock {
	n := t.Cfg.N
	block := t.pool.getBlock(len(targets), n, t.DS.Spec.EdgeDim)
	eids := t.pool.getIDs(len(targets) * n)
	eids = eids[:len(targets)*n]
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
	t.sliceBlockEdges(block, eids)
	t.pool.putIDs(eids)
	return block
}
