package train

import (
	"taser/internal/adaptive"
	"taser/internal/autograd"
	"taser/internal/models"
	"taser/internal/sampler"
)

// builtBatch is one materialized mini-batch: the minibatch, the roots and
// training edges it was built for, and the adaptive sampler's state for
// co-training (nil when adaptive neighbor sampling is off). Every buffer it
// holds is the trainer's buildPool's; releaseBatch hands them back.
type builtBatch struct {
	mb    *models.MiniBatch
	roots []sampler.Target // [srcs | dsts | negs] root targets
	edges []int            // training-edge indices (nil for eval and inference batches)

	sel *adaptive.Selection
	cs  *adaptive.CandidateSet
	gS  *autograd.Graph // sampler graph (separate from the model graph)
}

// BuildMiniBatch materializes an inference minibatch for arbitrary roots
// through the full sampling path (including the adaptive sampler when
// enabled). Exported for downstream applications that embed nodes outside
// the training loop, e.g. recommendation scoring. The returned minibatch is
// owned by the caller (it is never recycled into the trainer's buffer pool).
func (t *Trainer) BuildMiniBatch(roots []sampler.Target) *models.MiniBatch {
	return t.buildBatch(roots, nil).mb
}

// buildBatch builds the minibatch for roots: the shared static descent
// (buildCore.build), with the adaptive hop plugged in at the outermost hop
// when adaptive neighbor sampling is on. edges names a training batch's
// edges (nil otherwise); only a training batch is co-trained. The draws
// come in one order: the caller's negatives, then t.Finder at budget m for
// the outermost hop's candidates, then finderC for the static hops below it.
// Without adaptive neighbor sampling every hop samples t.Finder.
func (t *Trainer) buildBatch(roots []sampler.Target, edges []int) builtBatch {
	out := builtBatch{roots: roots, edges: edges}
	if t.Sampler == nil {
		out.mb = t.build(roots, t.Finder, nil)
		return out
	}
	outer := t.layers - 1
	out.mb = t.build(roots, t.finderC, func(l int, targets []sampler.Target) *models.LayerBlock {
		if l != outer {
			return nil // adaptive at the outermost hop only: static below it
		}
		return t.adaptiveHop(&out, targets)
	})
	return out
}

// adaptiveHop resolves the outermost hop through the adaptive sampler: the m
// candidates of t.Finder → Selection of n of them → layer block, whose
// chosen edges' features are then sliced in one call. A training batch is
// one window, drawn on the recording sampler graph, and its Selection is
// retained for co-training. Any other batch draws in windows of at most
// windowRoots roots, each on a fresh forward-only checkout, so the sampler
// graph stays within a step's size; the draws are bitwise one Select's
// (CandidateSet.Window).
func (t *Trainer) adaptiveHop(out *builtBatch, targets []sampler.Target) *models.LayerBlock {
	res := t.pool.getResult()
	t.sample(t.Finder, targets, t.Cfg.M, res)
	cs := t.buildCandidateSet(targets, res)
	out.cs = cs
	n := t.Cfg.N
	block := t.pool.getBlock(len(targets), n, t.edgeDim)
	eids := t.pool.ids.get(len(targets) * n)[:len(targets)*n]
	for i := range eids {
		eids[i] = -1
	}
	if out.edges != nil {
		// Checking the recording graph out ends the previous step's pass.
		out.gS = t.samplerGraph(false)
		t.time("AS", func() { out.sel = t.Sampler.Select(out.gS, cs, n) })
		fillFromSelection(block, eids, targets, res, out.sel, 0)
	} else {
		w := t.windowRoots()
		for lo := 0; lo < cs.B; lo += w {
			var sel *adaptive.Selection
			t.time("AS", func() {
				sel = t.Sampler.Select(t.samplerGraph(true), cs.Window(&t.csWindow, lo, min(lo+w, cs.B)), n)
			})
			fillFromSelection(block, eids, targets, res, sel, lo)
			t.Sampler.Recycle(sel)
		}
	}
	block.FinishMask()
	t.sliceEdges(eids, block.EdgeFeat)
	t.pool.ids.put(eids)
	t.pool.putResult(res)
	return block
}

// windowRoots is the most roots a forward-only pass of the Trainer covers:
// BatchSize, a third of a training step's [srcs | dsts | negs]. A whole
// step's roots are too many: evaluation's late roots have fuller
// neighborhoods than the training edges, so such a window, forward-only,
// needs about what a recording step does, and it grew the TGAT model arena
// in about half the fixtures tried (DESIGN.md §5).
func (t *Trainer) windowRoots() int { return t.Cfg.BatchSize }

// releaseBatch returns a built batch's pooled buffers, its roots and edges
// included.
func (t *Trainer) releaseBatch(b *builtBatch) {
	t.release(b.mb)
	t.pool.putSet(b.cs)
	if b.sel != nil {
		t.Sampler.Recycle(b.sel)
	}
	t.pool.targets.put(b.roots)
	t.pool.ints.put(b.edges)
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
	t.sliceNodes(cs.Nodes, cs.NodeFeat)
	t.sliceTargetNodes(targets, cs.TargetFeat)
	t.sliceEdges(res.Eids, cs.EdgeFeat)
	return cs
}

// fillFromSelection fills the rows of block that sel draws for, targets
// lo, lo+1, … (sel.Chosen[i] is target lo+i's), from the chosen candidate
// slots of res, and records each chosen edge's id in eids for the slice.
func fillFromSelection(block *models.LayerBlock, eids []int32, targets []sampler.Target, res *sampler.Result, sel *adaptive.Selection, lo int) {
	for i, chosen := range sel.Chosen {
		tg := targets[lo+i]
		for j, slot := range chosen {
			s := res.Slot(lo+i, slot)
			block.SetEntry(lo+i, j, res.Nodes[s], tg.Time-res.Times[s])
			eids[(lo+i)*block.Budget+j] = res.Eids[s]
		}
	}
}
