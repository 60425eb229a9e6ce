package main

import (
	"time"

	"taser/internal/datasets"
	"taser/internal/sampler"
	"taser/internal/train"
)

// newTrainer is the benchmark's call into train.New.
func newTrainer(cfg train.Config, ds *datasets.Dataset) (*train.Trainer, error) {
	return train.New(cfg, ds)
}

// stepsPerEpoch is ⌈train/batch⌉, the step count train.TrainEpoch runs.
func stepsPerEpoch(t *train.Trainer) int {
	return (t.DS.TrainEnd + t.Cfg.BatchSize - 1) / t.Cfg.BatchSize
}

// syncStep is one synchronous Trainer.TrainStep under a "train.TrainStep"
// span, returning the loss and the step's latency.
func syncStep(tr *tracer, op int, t *train.Trainer) (loss, ms float64) {
	id := tr.begin("train.TrainStep", -1, op)
	start := time.Now()
	loss = t.TrainStep()
	ms = msSince(start)
	tr.end(id)
	return loss, ms
}

// pipelinedEpoch is the body of train.TrainEpochPipelined spelled with public
// calls so every step can be timed: a pipeline bounded to one epoch, drained
// step by step, closed, then the cache epoch advanced. The bounded producer
// leaves the batch cursor at the end of the training split, so the next
// epoch starts from its first edge and every epoch does identical work.
func pipelinedEpoch(tr *tracer, firstOp int, t *train.Trainer, each func(loss, ms float64) error) (steps int, err error) {
	p := t.NewPipeline(stepsPerEpoch(t))
	defer func() {
		p.Close()
		t.EdgeStore.EndEpoch()
	}()
	for {
		id := tr.begin("train.Pipeline.Step", -1, firstOp+steps)
		start := time.Now()
		loss, ok := p.Step()
		ms := msSince(start)
		tr.end(id)
		if !ok {
			return steps, nil
		}
		steps++
		if err := each(loss, ms); err != nil {
			return steps, err
		}
	}
}

// evalVal is one Trainer.EvalMRR(SplitVal) call under a "train.EvalMRR" span.
func evalVal(tr *tracer, t *train.Trainer) (mrr float64, edges int, ms float64) {
	id := tr.begin("train.EvalMRR", -1, -1)
	start := time.Now()
	mrr = t.EvalMRR(train.SplitVal)
	ms = msSince(start)
	tr.end(id)
	edges = t.DS.ValEnd - t.DS.TrainEnd
	if t.Cfg.MaxEvalEdges > 0 && edges > t.Cfg.MaxEvalEdges {
		edges = t.Cfg.MaxEvalEdges
	}
	return mrr, edges, ms
}

// timerBuckets reads the trainer's exported Table III buckets in ms. FS
// includes the modeled PCIe/VRAM transfer time, not only the real copy.
func timerBuckets(t *train.Trainer) map[string]float64 {
	out := map[string]float64{}
	for _, b := range []string{"NF", "FS", "AS", "PP"} {
		out[b] = float64(t.Timer.Get(b)) / float64(time.Millisecond)
	}
	return out
}

// buildMiniBatch is the trainer's whole construction path for roots (NF, FS
// and, when on, adaptive selection) under a "train.BuildMiniBatch" span.
func buildMiniBatch(tr *tracer, op int, t *train.Trainer, roots []sampler.Target) {
	id := tr.begin("train.BuildMiniBatch", -1, op)
	t.BuildMiniBatch(roots)
	tr.end(id)
}

// trainRoots builds the [srcs | dsts | negs] roots of a training step over
// edges, with negatives drawn by the benchmark the way the trainer draws
// them (destination partition on bipartite datasets).
func trainRoots(ds *datasets.Dataset, edges []int, negative func() int32) []sampler.Target {
	b := len(edges)
	roots := make([]sampler.Target, 3*b)
	for i, e := range edges {
		ev := ds.Graph.Events[e]
		roots[i] = sampler.Target{Node: ev.Src, Time: ev.Time}
		roots[b+i] = sampler.Target{Node: ev.Dst, Time: ev.Time}
		roots[2*b+i] = sampler.Target{Node: negative(), Time: ev.Time}
	}
	return roots
}

// probeInferBuild times train.InferenceBuilder.Build — the pooled build path
// serving uses — on roots, per root.
func probeInferBuild(cfg train.InferConfig, roots []sampler.Target, reps int) (float64, error) {
	b, err := train.NewInferenceBuilder(cfg)
	if err != nil {
		return 0, err
	}
	b.Release(b.Build(roots)) // fills the pool
	start := time.Now()
	for i := 0; i < reps; i++ {
		b.Release(b.Build(roots))
	}
	return float64(time.Since(start)) / 1e3 / float64(reps*len(roots)), nil
}
