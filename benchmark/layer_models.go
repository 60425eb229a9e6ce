package main

import (
	"sort"
	"time"

	"taser/internal/autograd"
	"taser/internal/models"
	"taser/internal/nn"
	"taser/internal/sampler"
	"taser/internal/tensor"
)

// This file is the adapter for the model stack — internal/models and the
// internal/autograd, internal/nn and internal/tensor packages that only a
// model call reaches.

// forward runs the backbone under a "models.Forward" span.
func forward(tr *tracer, parent, op int, m models.TGNN, g *autograd.Graph, mb *models.MiniBatch) (*autograd.Var, *models.CoTrainInfo) {
	id := tr.begin("models.Forward", parent, op)
	emb, info := m.Forward(g, mb)
	tr.end(id)
	return emb, info
}

// scorePairs runs the edge predictor over (src, dst) embedding rows under a
// "models.Score" span; with labels it also builds the BCE loss.
func scorePairs(tr *tracer, parent, op int, p *models.EdgePredictor, g *autograd.Graph, emb *autograd.Var,
	src, dst []int32, labels []float64) (logits, loss *autograd.Var) {
	id := tr.begin("models.Score", parent, op)
	logits = p.ScoreGathered(g, emb, src, dst)
	if labels != nil {
		loss = g.BCEWithLogits(logits, labels)
	}
	tr.end(id)
	return logits, loss
}

// backward back-propagates the loss under an "autograd.Backward" span.
func backward(tr *tracer, parent, op int, g *autograd.Graph, loss *autograd.Var) {
	id := tr.begin("autograd.Backward", parent, op)
	g.Backward(loss)
	tr.end(id)
}

// adamStep applies and clears the gradients under an "nn.Adam" span.
func adamStep(tr *tracer, parent, op int, opt *nn.Adam) {
	id := tr.begin("nn.Adam", parent, op)
	opt.Step()
	opt.ZeroGrad()
	tr.end(id)
}

// matmulShape is one dense product rows×in · in×out issued by a forward pass.
type matmulShape struct{ rows, in, out int }

func (s matmulShape) flops() float64 { return 2 * float64(s.rows) * float64(s.in) * float64(s.out) }
func (s matmulShape) bytes() float64 {
	return 8 * float64(s.rows*s.in+s.in*s.out+s.rows*s.out)
}

// modelDims are the widths a backbone was built with.
type modelDims struct{ node, edge, hidden, time int }

// modelShapes lists the dense products one forward pass over mb issues,
// computed from the backbone's architecture and the minibatch's block sizes —
// not measured. pairs is the number of (src, dst) rows the edge predictor
// scores.
func modelShapes(m models.TGNN, d modelDims, mb *models.MiniBatch, pairs int) []matmulShape {
	var out []matmulShape
	switch m.(type) {
	case *models.TGAT:
		in := d.node
		for _, blk := range mb.Layers {
			t, tn := blk.NumTargets, blk.NumTargets*blk.Budget
			out = append(out,
				matmulShape{t, in + d.time, d.hidden},           // query
				matmulShape{tn, in + d.edge + d.time, d.hidden}, // key
				matmulShape{tn, in + d.edge + d.time, d.hidden}, // value
				matmulShape{t, d.hidden + in, d.hidden})         // output FFN
			in = d.hidden
		}
	case *models.GraphMixer:
		blk := mb.Layers[0]
		t, k := blk.NumTargets, blk.Budget
		kh := max(1, k/2)
		out = append(out,
			matmulShape{t * k, d.node + d.edge + d.time, d.hidden}, // token projection
			matmulShape{t * kh, k, d.hidden},                       // token mixing up
			matmulShape{t * k, kh, d.hidden},                       // token mixing down
			matmulShape{t * k, d.hidden, 2 * d.hidden},             // channel MLP
			matmulShape{t * k, 2 * d.hidden, d.hidden},
			matmulShape{t, d.hidden + d.node, d.hidden}) // readout
	}
	if pairs > 0 {
		out = append(out, matmulShape{pairs, 2 * d.hidden, d.hidden}, matmulShape{pairs, d.hidden, 1})
	}
	return out
}

// probeMatMul times tensor.MatMulInto on the three costliest shapes and
// returns the achieved rate in GFLOP/s.
func probeMatMul(shapes []matmulShape) float64 {
	sort.Slice(shapes, func(i, j int) bool { return shapes[i].flops() > shapes[j].flops() })
	if len(shapes) > 3 {
		shapes = shapes[:3]
	}
	var flops float64
	var spent time.Duration
	for _, s := range shapes {
		if s.rows == 0 || s.in == 0 || s.out == 0 {
			continue
		}
		a, b, dst := tensor.New(s.rows, s.in), tensor.New(s.in, s.out), tensor.New(s.rows, s.out)
		a.Fill(0.5)
		b.Fill(0.25)
		tensor.MatMulInto(dst, a, b) // warm
		const reps = 20
		start := time.Now()
		for r := 0; r < reps; r++ {
			tensor.MatMulInto(dst, a, b)
		}
		spent += time.Since(start)
		flops += reps * s.flops()
	}
	if spent == 0 {
		return 0
	}
	return flops / spent.Seconds() / 1e9
}

// blockFromResult lays a finder result (budget n) out as a layer block.
func blockFromResult(targets []sampler.Target, res *sampler.Result, edgeDim int) *models.LayerBlock {
	blk := models.NewLayerBlock(len(targets), res.Budget, edgeDim)
	for i, tg := range targets {
		for j := 0; j < int(res.Counts[i]); j++ {
			s := res.Slot(i, j)
			blk.SetEntry(i, j, res.Nodes[s], tg.Time-res.Times[s])
		}
	}
	blk.FinishMask()
	return blk
}

// blockFromSelection lays the adaptively chosen candidate slots out as an
// n-budget layer block and returns the chosen edges' row ids (-1 = padding).
func blockFromSelection(targets []sampler.Target, res *sampler.Result, chosen [][]int, n, edgeDim int) (*models.LayerBlock, []int32) {
	blk := models.NewLayerBlock(len(targets), n, edgeDim)
	eids := make([]int32, len(targets)*n)
	for i := range eids {
		eids[i] = -1
	}
	for i, tg := range targets {
		for j, slot := range chosen[i] {
			s := res.Slot(i, slot)
			blk.SetEntry(i, j, res.Nodes[s], tg.Time-res.Times[s])
			eids[i*n+j] = res.Eids[s]
		}
	}
	blk.FinishMask()
	return blk, eids
}

// extendTargets appends a block's selected neighbors as the next hop's
// targets: a neighbor is embedded at its interaction time, a padded slot
// becomes the sentinel (node 0, time 0) whose neighborhood is empty.
func extendTargets(targets []sampler.Target, blk *models.LayerBlock) []sampler.Target {
	next := append(make([]sampler.Target, 0, len(targets)*(1+blk.Budget)), targets...)
	for i := 0; i < blk.NumTargets; i++ {
		for j := 0; j < blk.Budget; j++ {
			s := i*blk.Budget + j
			if blk.NbrNodes[s] < 0 {
				next = append(next, sampler.Target{})
				continue
			}
			next = append(next, sampler.Target{Node: blk.NbrNodes[s], Time: targets[i].Time - blk.DeltaT.Data[s]})
		}
	}
	return next
}
