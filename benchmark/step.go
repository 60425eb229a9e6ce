package main

import (
	"taser/internal/adaptive"
	"taser/internal/autograd"
	"taser/internal/featstore"
	"taser/internal/models"
	"taser/internal/nn"
	"taser/internal/sampler"
	"taser/internal/tensor"
)

// stepParts are the public pieces one op's compute is made of. The traced
// run replays recorded op inputs through them one layer call at a time, so
// each layer gets its own span on the real flow: find neighbors → slice
// features → (adaptive: select) → forward → score → (training: backward →
// optimizer → adaptive co-training).
type stepParts struct {
	finder    sampler.Finder
	policy    sampler.Policy
	n, m      int // supporting neighbors per hop; adaptive candidate budget
	edgeStore *featstore.Store
	nodeStore *featstore.Store
	dims      modelDims

	model models.TGNN
	pred  *models.EdgePredictor

	// Training only.
	optModel *nn.Adam
	// Adaptive neighbor sampling only (the outermost hop, as the trainer
	// does by default).
	sampler    *adaptive.NeighborSampler
	optSampler *nn.Adam

	gM, gS *autograd.Graph // reusable model / sampler graphs
}

// stepCounts is what the replayed ops asked of each layer.
type stepCounts struct {
	ops        int
	sampler    samplerCounts
	slice      sliceCounts
	candidates int
	shapes     []matmulShape // of the last op
	eids       []int32       // edge rows the last op sliced
}

// replayStep runs one op over roots under a "step" span. With labels it is a
// training step over [srcs | dsts | negs] roots; without, an inference batch
// whose (src, dst) rows are scored.
func (p *stepParts) replayStep(tr *tracer, op int, roots []sampler.Target, src, dst []int32, labels []float64, c *stepCounts) {
	if p.gM == nil {
		p.gM, p.gS = autograd.NewReusable(), autograd.NewReusable()
	}
	root := tr.begin("step", -1, op)
	defer tr.end(root)
	c.ops++

	layers := p.model.NumLayers()
	blocks := make([]*models.LayerBlock, layers)
	targets := roots
	res := &sampler.Result{}
	var sel *adaptive.Selection
	var cs *adaptive.CandidateSet
	p.gS.Reset()
	for l := layers - 1; l >= 0; l-- {
		var blk *models.LayerBlock
		if p.sampler != nil && l == layers-1 {
			sampleNeighbors(tr, root, op, p.finder, targets, p.m, p.policy, res, &c.sampler)
			var valid int
			cs, valid = candidatesFrom(targets, res, p.dims.node, p.dims.edge)
			c.candidates += valid
			if p.dims.node > 0 {
				sliceRows(tr, root, op, p.nodeStore, cs.Nodes, cs.NodeFeat, &c.slice)
				sliceRows(tr, root, op, p.nodeStore, targetIDs(targets), cs.TargetFeat, &c.slice)
			}
			if p.dims.edge > 0 {
				sliceRows(tr, root, op, p.edgeStore, res.Eids, cs.EdgeFeat, &c.slice)
			}
			sel = selectNeighbors(tr, root, op, p.sampler, p.gS, cs, p.n)
			var eids []int32
			blk, eids = blockFromSelection(targets, res, sel.Chosen, p.n, p.dims.edge)
			if p.dims.edge > 0 {
				sliceRows(tr, root, op, p.edgeStore, eids, blk.EdgeFeat, &c.slice)
			}
			c.eids = eids
		} else {
			sampleNeighbors(tr, root, op, p.finder, targets, p.n, p.policy, res, &c.sampler)
			blk = blockFromResult(targets, res, p.dims.edge)
			if p.dims.edge > 0 {
				sliceRows(tr, root, op, p.edgeStore, res.Eids, blk.EdgeFeat, &c.slice)
			}
			c.eids = append(c.eids[:0], res.Eids...)
		}
		blocks[l] = blk
		targets = extendTargets(targets, blk)
	}
	mb := &models.MiniBatch{Layers: blocks, LeafFeat: tensor.New(len(targets), p.dims.node)}
	sliceRows(tr, root, op, p.nodeStore, targetIDs(targets), mb.LeafFeat, &c.slice)
	c.shapes = modelShapes(p.model, p.dims, mb, len(src))

	p.gM.Reset()
	emb, info := forward(tr, root, op, p.model, p.gM, mb)
	_, loss := scorePairs(tr, root, op, p.pred, p.gM, emb, src, dst, labels)
	if labels == nil {
		return
	}
	backward(tr, root, op, p.gM, loss)
	adamStep(tr, root, op, p.optModel)
	if sel != nil {
		cotrain(tr, root, op, p.sampler, p.optSampler, p.gS, info, sel, cs)
		p.sampler.Recycle(sel)
	}
}

func targetIDs(targets []sampler.Target) []int32 {
	ids := make([]int32, len(targets))
	for i, tg := range targets {
		ids[i] = tg.Node
	}
	return ids
}

// trainIndex is the (src, dst, label) layout of a training step over
// [srcs | dsts | negs] roots: each source against its positive, then its
// negative.
func trainIndex(b int) (src, dst []int32, labels []float64) {
	src, dst, labels = make([]int32, 2*b), make([]int32, 2*b), make([]float64, 2*b)
	for i := 0; i < b; i++ {
		src[i], dst[i], labels[i] = int32(i), int32(b+i), 1
		src[b+i], dst[b+i] = int32(i), int32(2*b+i)
	}
	return src, dst, labels
}
