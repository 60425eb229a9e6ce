package main

import (
	"fmt"
	"time"

	"taser/internal/datasets"
	"taser/internal/mathx"
	"taser/internal/sampler"
	"taser/internal/train"
)

// trainSpec is a training workload's definition. Every field is an input the
// layers receive; nothing below tests which workload it is running.
type trainSpec struct {
	dataset   string
	scale     func(o options) float64 // dataset scale (events)
	cfg       func(o options) train.Config
	pipelined bool // a lap is one pipelined epoch; else lapSteps synchronous steps
	lapSteps  func(o options) int
	warm      func(o options) int // warm-up before timing: synchronous steps, or pipelined epochs
	// Side window: one short EvalMRR call after every primary lap, so that
	// some side laps meet a quiet host, then evalCalls calls at the config's
	// MaxEvalEdges whose mean MRR is the quality score.
	lapEvalEdges func(o options) int
	evalCalls    int
}

// trainRun is a set-up training workload.
type trainRun struct {
	spec trainSpec
	o    options
	ds   *datasets.Dataset
	t    *train.Trainer

	steps     int // synchronous steps since construction, for the epoch boundary
	attempted int
	genMS     float64
	sideLaps  []sideLap
}

func (s trainSpec) setup(o options, tr *tracer) (running, error) {
	r := &trainRun{spec: s, o: o}
	id := tr.begin("datasets.Generate", -1, -1)
	ds, err := generateDataset(s.dataset, s.scale(o), o.seed)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	r.ds, r.genMS = ds, tr.durMS(id)
	cfg := s.cfg(o)
	cfg.Seed = o.seed
	if r.t, err = newTrainer(cfg, ds); err != nil {
		return nil, err
	}
	// Warm-up is part of set-up: pools and arenas reach their steady shapes,
	// and the frequency cache (which starts empty) gets its first residency
	// from the warm steps' access counts.
	for i := 0; i < s.warm(o); i++ {
		if s.pipelined {
			_, err = pipelinedEpoch(nil, 0, r.t, r.checkLoss)
		} else {
			err = r.syncStep(nil, -1, nil)
		}
		if err != nil {
			return nil, err
		}
	}
	if !s.pipelined {
		r.t.EdgeStore.EndEpoch()
	}
	// The side window measures warm evaluation: one untimed call first.
	if err := r.between(nil); err != nil {
		return nil, err
	}
	r.sideLaps = nil
	return r, nil
}

func (r *trainRun) checkLoss(loss, _ float64) error { return finite("training loss", loss) }

// syncStep is one timed synchronous step with TrainEpoch's epoch bookkeeping.
func (r *trainRun) syncStep(tr *tracer, op int, w *window) error {
	loss, ms := syncStep(tr, op, r.t)
	if w != nil {
		w.latMS = append(w.latMS, ms)
	}
	r.steps++
	if r.steps%stepsPerEpoch(r.t) == 0 {
		r.t.EdgeStore.EndEpoch()
	}
	return finite("training loss", loss)
}

func (r *trainRun) lap(i int, w *window, tr *tracer) (int, float64, error) {
	if r.spec.pipelined {
		steps, err := pipelinedEpoch(tr, r.attempted, r.t, func(loss, ms float64) error {
			w.latMS = append(w.latMS, ms)
			return finite("training loss", loss)
		})
		r.attempted += steps
		return steps, float64(r.ds.TrainEnd), err
	}
	n := r.spec.lapSteps(r.o)
	for s := 0; s < n; s++ {
		r.attempted++
		if err := r.syncStep(tr, r.attempted-1, w); err != nil {
			return s, 0, err
		}
	}
	return n, float64(n * r.t.Cfg.BatchSize), nil
}

// evalLap is one EvalMRR call on the validation split as a side lap: one
// evaluated edge (a positive ranked against EvalNegatives negatives) is the
// side op. EvalMRR evaluates in chunks, so the side-op latency is the call's
// time per edge.
func (r *trainRun) evalLap(tr *tracer) (float64, error) {
	mrr, edges, ms := evalVal(tr, r.t)
	r.sideLaps = append(r.sideLaps, sideLap{ops: edges, seconds: ms / 1e3, latMS: []float64{ms / float64(edges)}})
	return mrr, finite("validation MRR", mrr)
}

// between is the short side lap after every primary lap.
func (r *trainRun) between(tr *tracer) error {
	full := r.t.Cfg.MaxEvalEdges
	r.t.Cfg.MaxEvalEdges = r.spec.lapEvalEdges(r.o)
	_, err := r.evalLap(tr)
	r.t.Cfg.MaxEvalEdges = full
	return err
}

// after runs the final side laps; their mean MRR is the quality score.
func (r *trainRun) after(tr *tracer) (side, error) {
	var sum float64
	for c := 0; c < r.spec.evalCalls; c++ {
		mrr, err := r.evalLap(tr)
		if err != nil {
			return side{}, err
		}
		sum += mrr
	}
	return side{laps: r.sideLaps, quality: sum / float64(r.spec.evalCalls)}, nil
}

func (r *trainRun) counts() (int, int) { return r.attempted, 0 }

func (r *trainRun) info() map[string]any {
	return map[string]any{
		"dataset": r.ds.String(), "batch": r.t.Cfg.BatchSize, "steps_per_epoch": stepsPerEpoch(r.t),
		"ops_per_s_counts": "trained positive edges; latencies and per-op costs are per step",
	}
}

func (r *trainRun) close() error { return nil }

// layers replays training steps layer by layer on the trainer's own model,
// stores and optimizers, and reads its exported counters.
func (r *trainRun) layers(tr *tracer, _ float64) (metrics, error) {
	t, ds := r.t, r.ds
	m := metrics{"datasets.generate_ms": r.genMS}
	m.add(probeTgraph(ds.Graph, ds.Spec.NumNodes, snapshotEvery))

	// Counters over a traced window of the real loop: Table III shares, cache
	// hits and modeled transfer per step.
	before := timerBuckets(t)
	pcie0, model0 := t.Xfer.PCIeBytes(), t.Xfer.ModeledTime()
	if pol := t.EdgeStore.Policy(); pol != nil {
		pol.ResetStats()
	}
	w := &window{}
	n, _, err := r.lap(0, w, nil)
	if err != nil {
		return nil, err
	}
	var total float64
	delta := map[string]float64{}
	for b, v := range timerBuckets(t) {
		delta[b] = v - before[b]
		total += delta[b]
	}
	if total > 0 {
		m["train.nf_share"] = delta["NF"] / total
		m["train.fs_share"] = delta["FS"] / total
		m["train.as_share"] = delta["AS"] / total
		m["train.pp_share"] = delta["PP"] / total
	}
	if pol := t.EdgeStore.Policy(); pol != nil {
		m["featstore.hit_share"] = pol.HitRate()
	}
	m["featstore.pcie_bytes_per_op"] = float64(t.Xfer.PCIeBytes()-pcie0) / float64(n)
	m["featstore.modeled_ms_per_op"] = float64(t.Xfer.ModeledTime()-model0) / 1e6 / float64(n)

	// Pipeline overlap: the same trainer's pipelined step against its
	// synchronous step, over one lap's worth of steps each.
	steps := len(w.latMS)
	syncMS := make([]float64, 0, steps)
	for i := 0; i < steps; i++ {
		_, ms := syncStep(nil, -1, t)
		syncMS = append(syncMS, ms)
	}
	var pipeMS []float64
	p := t.NewPipeline(steps)
	for {
		start := time.Now()
		if _, ok := p.Step(); !ok {
			break
		}
		pipeMS = append(pipeMS, msSince(start))
	}
	p.Close()
	m["train.pipeline_overlap_share"] = 1 - median(pipeMS)/median(syncMS)

	// Layer-by-layer replay of training steps over the first training edges.
	rng := mathx.NewRNG(r.o.seed ^ 0x7ace)
	lo := 0
	if ds.Spec.NumSrc > 0 {
		lo = ds.Spec.NumSrc
	}
	negative := func() int32 { return int32(lo + rng.Intn(ds.Spec.NumNodes-lo)) }
	parts := &stepParts{
		finder: newFinder(ds.TCSR, r.o.seed^0x51), policy: trainPolicy(t),
		n: t.Cfg.N, m: t.Cfg.M,
		edgeStore: t.EdgeStore, nodeStore: t.NodeStore,
		dims:  modelDims{ds.Spec.NodeDim, ds.Spec.EdgeDim, t.Cfg.Hidden, t.Cfg.TimeDim},
		model: t.Model, pred: t.Pred, optModel: t.OptModel,
		sampler: t.Sampler, optSampler: t.OptSampler,
	}
	b := t.Cfg.BatchSize
	src, dst, labels := trainIndex(b)
	replays := max(4, steps/2)
	if r.o.tiny {
		replays = 2
	}
	var c stepCounts
	logits := make([]float64, b)
	for i := 0; i < replays; i++ {
		var edges []int
		if t.Selector != nil {
			edges = selectorRound(tr, -1, i, t.Selector, b, logits)
		} else {
			for e := (i * b) % (ds.TrainEnd - b); len(edges) < b; e++ {
				edges = append(edges, e)
			}
		}
		roots := trainRoots(ds, edges, negative)
		buildMiniBatch(tr, i, t, roots)
		parts.replayStep(tr, i, roots, src, dst, labels, &c)
	}
	by := tr.byName()
	perOp := func(name string) float64 {
		if s := by[name]; s != nil {
			return s.totMS / float64(c.ops)
		}
		return 0
	}
	m["train.build_ms_per_op"] = perOp("train.BuildMiniBatch")
	m["models.forward_ms_per_op"] = perOp("models.Forward")
	m["models.score_us_per_op"] = perOp("models.Score") * 1e3
	m["autograd.backward_ms_per_op"] = perOp("autograd.Backward")
	m["nn.adam_ms_per_op"] = perOp("nn.Adam")
	m["adaptive.select_ms_per_op"] = perOp("adaptive.Select")
	m["adaptive.cotrain_ms_per_op"] = perOp("adaptive.cotrain")
	m["adaptive.selector_us_per_op"] = perOp("adaptive.selector") * 1e3
	m["adaptive.candidates_per_op"] = float64(c.candidates) / float64(c.ops)
	m.add(layerCounts(by, &c, ds.EdgeFeat.Rows, t.Cfg.CacheRatio, 3))

	us, err := probeInferBuild(train.InferConfig{
		TCSR: ds.TCSR, NodeFeat: ds.NodeFeat, EdgeFeat: ds.EdgeFeat,
		Layers: t.Model.NumLayers(), Budget: t.Cfg.N, Policy: sampler.MostRecent, Seed: r.o.seed,
	}, trainRoots(ds, firstEdges(b), negative), 5)
	if err != nil {
		return nil, fmt.Errorf("inference-builder probe: %w", err)
	}
	m["train.infer_build_us_per_root"] = us
	return m, nil
}

func firstEdges(b int) []int {
	edges := make([]int, b)
	for i := range edges {
		edges[i] = i
	}
	return edges
}

// trainPolicy is the static policy train.New pairs with the backbone.
func trainPolicy(t *train.Trainer) sampler.Policy {
	if t.Cfg.Model == train.ModelGraphMixer || t.Cfg.FinderPolicy == "recent" {
		return sampler.MostRecent
	}
	return sampler.Uniform
}

// layerCounts turns the replay's sampler, feature-store and tensor counts
// into per-op metrics. gradFactor is 3 for a training step (forward plus the
// two backward products of every dense layer), 1 for inference.
func layerCounts(by map[string]*spanStats, c *stepCounts, edgeRows int, cacheRatio float64, gradFactor float64) metrics {
	m := metrics{}
	ops := float64(c.ops)
	if s := by["sampler.Sample"]; s != nil && c.sampler.targets > 0 {
		m["sampler.sample_us_per_target"] = s.totMS * 1e3 / float64(c.sampler.targets)
		m["sampler.targets_per_op"] = float64(c.sampler.targets) / ops
		m["sampler.calls_per_op"] = float64(c.sampler.calls) / ops
		m["sampler.filled_share"] = float64(c.sampler.filled) / float64(c.sampler.slots)
	}
	if s := by["featstore.Slice"]; s != nil && c.slice.rows > 0 {
		m["featstore.slice_us_per_krow"] = s.totMS * 1e3 / float64(c.slice.rows) * 1e3
		m["featstore.rows_per_op"] = float64(c.slice.rows) / ops
	}
	m["device.launch_us"] = probeLaunch(64, 200)
	if cacheRatio > 0 {
		m["cache.access_ns"] = probeCacheAccess(c.eids, edgeRows, cacheRatio)
	}
	var flops, bytes float64
	for _, s := range c.shapes {
		flops += s.flops()
		bytes += s.bytes()
	}
	m["tensor.flops_per_op"] = gradFactor * flops
	m["tensor.bytes_per_op"] = gradFactor * bytes
	m["tensor.matmul_gflops"] = probeMatMul(c.shapes)
	return m
}
