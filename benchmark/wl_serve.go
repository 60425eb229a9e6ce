package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"taser/internal/datasets"
	"taser/internal/mathx"
	"taser/internal/sampler"
	"taser/internal/serve"
	"taser/internal/train"
)

// serveSpec is what the two serving workloads share: a dataset, a baseline
// (non-adaptive) backbone pretrained for a fixed number of steps so the
// weights are not random, and an engine over it bootstrapped with the
// training split.
type serveSpec struct {
	dataset       string
	scale         func(o options) float64
	model         train.ModelKind
	pretrainSteps func(o options) int
	pretrainBatch int
	cacheSize     int
	durable       bool
	maxQueue      int
	warmRequests  func(o options) int
	probeEdges    func(o options) int
}

// serveBase is the set-up state both serving workloads run on.
type serveBase struct {
	spec  serveSpec
	o     options
	ds    *datasets.Dataset
	t     *train.Trainer
	e     *serve.Engine
	qt    float64 // query time at-or-after every event the run ingests
	genMS float64
	tmp   string // scratch directory inside -out (the WAL lives here)

	nextIngest int // next continuation event (index into ds.Graph.Events)

	// Counters at the start and end of the traced window.
	traced bool
	c0, c1 engineCounters
	// The first request roots of the primary window, for the layer replay.
	pairs [][2]int32
}

func (s serveSpec) setupBase(o options, tr *tracer) (*serveBase, error) {
	b := &serveBase{spec: s, o: o}
	id := tr.begin("datasets.Generate", -1, -1)
	ds, err := generateDataset(s.dataset, s.scale(o), o.seed)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	b.ds, b.genMS = ds, tr.durMS(id)
	b.qt = ds.Graph.Events[len(ds.Graph.Events)-1].Time + 1
	b.nextIngest = ds.TrainEnd

	id = tr.begin("train.pretrain", -1, -1)
	b.t, err = newTrainer(train.Config{
		Model: s.model, Finder: train.FinderGPU, FinderPolicy: "recent",
		Hidden: 24, BatchSize: pick(o, s.pretrainBatch, 16), N: 10, Seed: o.seed,
	}, ds)
	if err != nil {
		return nil, err
	}
	for i := 0; i < s.pretrainSteps(o); i++ {
		loss, _ := syncStep(nil, -1, b.t)
		if err := finite("pretraining loss", loss); err != nil {
			return nil, err
		}
	}
	tr.end(id)

	es := engineSpec{cacheSize: s.cacheSize, maxQueue: s.maxQueue}
	if s.durable {
		// The contract keeps every write inside the checkout, so the WAL
		// lives under -out on whatever disk that is, not on a tmpfs.
		if err := os.MkdirAll(o.outDir, 0o755); err != nil {
			return nil, err
		}
		if b.tmp, err = os.MkdirTemp(o.outDir, "run-"); err != nil {
			return nil, err
		}
		es.walDir = filepath.Join(b.tmp, "wal")
	}
	id = tr.begin("serve.New+Bootstrap", -1, -1)
	b.e, err = newEngine(b.t, ds, es, o.seed)
	tr.end(id)
	if err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

func (b *serveBase) close() error {
	if b.e != nil {
		b.e.Close()
	}
	if b.tmp != "" {
		return os.RemoveAll(b.tmp)
	}
	return nil
}

// dstRange is where destinations live: the destination partition of a
// bipartite dataset, any node otherwise.
func (b *serveBase) dstRange() (lo, hi int) {
	if b.ds.Spec.NumSrc > 0 {
		return b.ds.Spec.NumSrc, b.ds.Spec.NumNodes
	}
	return 0, b.ds.Spec.NumNodes
}

func (b *serveBase) srcRange() int {
	if b.ds.Spec.NumSrc > 0 {
		return b.ds.Spec.NumSrc
	}
	return b.ds.Spec.NumNodes
}

// ingestNext admits the next event of the dataset's real continuation (the
// events right after the training split, with their edge features).
func (b *serveBase) ingestNext() error {
	i := b.nextIngest
	ev := b.ds.Graph.Events[i]
	b.nextIngest++
	return ingestEvent(b.e, ev.Src, ev.Dst, ev.Time, b.ds.EdgeFeat.Row(i))
}

// markTraced snapshots the engine's counters around the traced window.
func (b *serveBase) markTraced(tr *tracer, start bool) {
	if tr == nil {
		return
	}
	if start {
		if !b.traced {
			b.traced, b.c0 = true, readCounters(b.e)
		}
		return
	}
	b.c1 = readCounters(b.e)
}

// quality is the MRR probe: the dataset's final test edges, each positive
// destination ranked by PredictLink score against fixed-seed negative
// destinations. The candidates of one edge are issued concurrently so a
// batch fills instead of each waiting out MaxWait alone. Ties rank the
// positive last, as train.EvalMRR does.
func (b *serveBase) quality(tr *tracer) (float64, error) {
	const negatives = 19
	events := b.ds.Graph.Events
	n := min(b.spec.probeEdges(b.o), len(events)-b.ds.ValEnd)
	rng := mathx.NewRNG(b.o.seed ^ 0x9a11)
	lo, hi := b.dstRange()
	// One span for the whole probe: its requests are not the workload's ops.
	id := tr.begin("quality.probe", -1, -1)
	defer tr.end(id)
	var sum float64
	for _, ev := range events[len(events)-n:] {
		cands := []int32{ev.Dst}
		for len(cands) < 1+negatives {
			cands = append(cands, int32(lo+rng.Intn(hi-lo)))
		}
		scores := make([]float64, len(cands))
		errs := make([]error, len(cands))
		var wg sync.WaitGroup
		for i, c := range cands {
			wg.Add(1)
			go func(i int, c int32) {
				defer wg.Done()
				scores[i], _, errs[i] = predict(nil, -1, -1, b.e, ev.Src, c, ev.Time)
			}(i, c)
		}
		wg.Wait()
		rank := 1
		for i := range cands {
			if errs[i] != nil {
				return 0, fmt.Errorf("quality probe: %w", errs[i])
			}
			if err := finite("quality-probe score", scores[i]); err != nil {
				return 0, err
			}
			if i > 0 && scores[i] >= scores[0] {
				rank++
			}
		}
		sum += 1 / float64(rank)
	}
	return sum / float64(n), nil
}

// serveLayers is the per-layer part both serving workloads share: engine
// counters over the traced window, and a layer-by-layer replay of one
// micro-batch of the observed size built from the recorded request roots.
func (b *serveBase) serveLayers(tr *tracer, wallS float64) (metrics, error) {
	ds := b.ds
	m := metrics{"datasets.generate_ms": b.genMS}
	m.add(probeTgraph(ds.Graph, ds.Spec.NumNodes, snapshotEvery))

	d := func(a, z uint64) float64 { return float64(z - a) }
	batches, roots := d(b.c0.batches, b.c1.batches), d(b.c0.roots, b.c1.roots)
	if batches > 0 {
		m["serve.batch_roots_avg"] = roots / batches
	}
	if lookups := d(b.c0.hits, b.c1.hits) + d(b.c0.misses, b.c1.misses); lookups > 0 {
		m["serve.cache_hit_share"] = d(b.c0.hits, b.c1.hits) / lookups
		m["serve.cache_stale_share"] = d(b.c0.stale, b.c1.stale) / lookups
	}
	m["serve.snapshots_per_s"] = d(b.c0.snapshotVersion, b.c1.snapshotVersion) / wallS
	if admitted := d(b.c0.gateAdmitted, b.c1.gateAdmitted); admitted > 0 {
		shed := d(b.c0.gateShed, b.c1.gateShed)
		m["overload.shed_share"] = shed / (admitted + shed)
	}
	if appended := d(b.c0.walAppended, b.c1.walAppended); appended > 0 {
		m["wal.syncs_per_kevent"] = d(b.c0.walSyncs, b.c1.walSyncs) / appended * 1e3
	}

	by := tr.byName()
	var engineMS []float64
	for _, name := range []string{"serve.PredictLink", "serve.Embed"} {
		if s := by[name]; s != nil {
			engineMS = append(engineMS, s.durMS...)
		}
	}
	m["serve.engine_ms_p50"] = median(engineMS)

	// Replay one micro-batch of the observed size on the engine's current
	// snapshot: the engine pads the missed roots to a power of two.
	batchRoots := 1
	for batchRoots < int(m["serve.batch_roots_avg"]+0.5) {
		batchRoots <<= 1
	}
	pairs := max(1, batchRoots/2)
	roots2 := make([]sampler.Target, 0, 2*pairs)
	src, dst := make([]int32, pairs), make([]int32, pairs)
	for i := 0; i < pairs; i++ {
		p := b.pairs[i%len(b.pairs)]
		roots2 = append(roots2, sampler.Target{Node: p[0], Time: b.qt})
		src[i], dst[i] = int32(i), int32(pairs+i)
	}
	for i := 0; i < pairs; i++ {
		roots2 = append(roots2, sampler.Target{Node: b.pairs[i%len(b.pairs)][1], Time: b.qt})
	}
	snap := b.e.Pin()
	parts := &stepParts{
		finder: newFinder(snap.TCSR, b.o.seed), policy: sampler.MostRecent, n: b.t.Cfg.N,
		edgeStore: uncachedStore(snap.EdgeFeat), nodeStore: uncachedStore(ds.NodeFeat),
		dims:  modelDims{ds.Spec.NodeDim, ds.Spec.EdgeDim, b.t.Cfg.Hidden, b.t.Cfg.TimeDim},
		model: b.t.Model, pred: b.t.Pred,
	}
	var c stepCounts
	replays := pick(b.o, 50, 3)
	for i := 0; i < replays; i++ {
		parts.replayStep(tr, i, roots2, src, dst, nil, &c)
	}
	by = tr.byName()
	c.ops *= pairs // a replayed batch serves `pairs` predict requests
	perOp := func(name string) float64 {
		if s := by[name]; s != nil {
			return s.totMS / float64(c.ops)
		}
		return 0
	}
	m["models.forward_ms_per_op"] = perOp("models.Forward")
	m["models.score_us_per_op"] = perOp("models.Score") * 1e3
	m.add(layerCounts(by, &c, ds.EdgeFeat.Rows, 0, 1))
	// A request waits for its whole micro-batch: what is left of the engine
	// span after the batch's build + forward + score is time spent waiting
	// for the batch to fill or for MaxWait.
	m["serve.batch_wait_ms_p50"] = max(0, m["serve.engine_ms_p50"]-median(by["step"].durMS))

	us, err := probeInferBuild(train.InferConfig{
		TCSR: snap.TCSR, NodeFeat: ds.NodeFeat, EdgeFeat: snap.EdgeFeat,
		Layers: b.t.Model.NumLayers(), Budget: b.t.Cfg.N, Policy: sampler.MostRecent, Seed: b.o.seed,
	}, roots2, pick(b.o, 50, 3))
	if err != nil {
		return nil, fmt.Errorf("inference-builder probe: %w", err)
	}
	m["train.infer_build_us_per_root"] = us
	return m, nil
}

// ---- serve-cold: closed-loop in-process predicts, cache off ----

type coldSpec struct {
	serveSpec
	callers    int
	lapOps     func(o options) int // requests per lap, all callers together
	ingestRate float64             // paced writer, events per second
	ingestAll  func(o options) int // events the writer admits in all, during or right after the window
	sideBlocks func(o options) int // 256-event ingest blocks per side lap
}

type coldRun struct {
	*serveBase
	spec      coldSpec
	ingestEnd int
	lastVer   []uint64 // per caller: snapshot versions must never go backwards
	attempted int

	// The side window writes to a second engine of the same configuration:
	// its laps run between the primary laps, where synthetic events in the
	// serving engine would outdate the real continuation the writer ingests
	// and change the graph the next lap reads. Every side lap starts on a
	// freshly bootstrapped engine, so the laps do identical work and the
	// process's memory does not grow with the number of laps (one engine
	// kept for the whole run added 40 MB of synthetic events per lap, and
	// rss_mb_peak then read 668 or 762 MB depending on whether the last GC
	// cycle completed before exit).
	sideRNG  *mathx.RNG
	sideLaps []sideLap
}

func (s coldSpec) setup(o options, tr *tracer) (running, error) {
	b, err := s.setupBase(o, tr)
	if err != nil {
		return nil, err
	}
	r := &coldRun{serveBase: b, spec: s, lastVer: make([]uint64, s.callers),
		sideRNG: mathx.NewRNG(o.seed ^ 0xb10c)}
	r.ingestEnd = min(b.ds.TrainEnd+s.ingestAll(o), len(b.ds.Graph.Events))
	id := tr.begin("warm", -1, -1)
	defer tr.end(id)
	if _, err := r.closedLoop(-1, s.warmRequests(o), nil, nil); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

// closedLoop issues n predicts from the callers (each blocked on the engine
// until its reply), node pairs drawn uniformly from the lap's seed.
func (r *coldRun) closedLoop(lap, n int, w *window, tr *tracer) (int, error) {
	per := max(1, n/r.spec.callers)
	lats := make([][]float64, r.spec.callers)
	errs := make([]error, r.spec.callers)
	srcN := r.srcRange()
	lo, hi := r.dstRange()
	firstOp := r.attempted
	var wg sync.WaitGroup
	for c := 0; c < r.spec.callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := mathx.NewRNG(r.o.seed ^ uint64(lap+2)<<20 ^ uint64(c+1)<<8)
			lat := make([]float64, 0, per)
			for k := 0; k < per; k++ {
				src, dst := int32(rng.Intn(srcN)), int32(lo+rng.Intn(hi-lo))
				if lap == 0 && c == 0 && len(r.pairs) < 64 {
					r.pairs = append(r.pairs, [2]int32{src, dst})
				}
				start := time.Now()
				score, ver, err := predict(tr, -1, firstOp+c*per+k, r.e, src, dst, r.qt)
				lat = append(lat, msSince(start))
				if err == nil {
					err = finite("predict score", score)
				}
				if err == nil && ver < r.lastVer[c] {
					err = fmt.Errorf("snapshot version went backwards: %d after %d", ver, r.lastVer[c])
				}
				if err != nil {
					errs[c] = err
					return
				}
				r.lastVer[c] = ver
			}
			lats[c] = lat
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	if w != nil {
		for _, l := range lats {
			w.latMS = append(w.latMS, l...)
		}
	}
	return per * r.spec.callers, nil
}

func (r *coldRun) lap(i int, w *window, tr *tracer) (int, float64, error) {
	r.markTraced(tr, true)
	// One paced writer ingests the real continuation while the callers read.
	stop := make(chan struct{})
	var writerErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		interval := time.Duration(float64(time.Second) / r.spec.ingestRate)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for r.nextIngest < r.ingestEnd {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			if writerErr = r.ingestNext(); writerErr != nil {
				return
			}
		}
	}()
	n, err := r.closedLoop(i, r.spec.lapOps(r.o), w, tr)
	close(stop)
	wg.Wait()
	if err == nil && writerErr != nil {
		err = fmt.Errorf("writer: %w", writerErr)
	}
	r.attempted += n
	r.markTraced(tr, false)
	return n, float64(n), err
}

// between is one side lap: synthetic 256-event ingest blocks into a freshly
// bootstrapped second engine, each including the snapshot it triggers, with
// no readers. The side laps run between the primary laps so that, like them,
// some meet a quiet host; bunched after the window (half a second in all)
// they all shared one host episode and moved 25 % between runs.
func (r *coldRun) between(tr *tracer) error {
	scratch, err := newEngine(r.t, r.ds, engineSpec{cacheSize: r.spec.cacheSize}, r.o.seed)
	if err != nil {
		return fmt.Errorf("side engine: %w", err)
	}
	defer scratch.Close()
	t := r.qt
	srcN := r.srcRange()
	lo, hi := r.dstRange()
	feats := r.ds.EdgeFeat
	var lap sideLap
	for blk := 0; blk < r.spec.sideBlocks(r.o); blk++ {
		id := tr.begin("serve.Ingest.block", -1, -1)
		start := time.Now()
		for k := 0; k < snapshotEvery; k++ {
			t++
			var row []float64
			if feats.Cols > 0 {
				row = feats.Row(r.sideRNG.Intn(feats.Rows))
			}
			src, dst := int32(r.sideRNG.Intn(srcN)), int32(lo+r.sideRNG.Intn(hi-lo))
			if err := ingestEvent(scratch, src, dst, t, row); err != nil {
				return fmt.Errorf("side ingest: %w", err)
			}
		}
		ms := msSince(start)
		tr.end(id)
		lap.ops++
		lap.seconds += ms / 1e3
		lap.latMS = append(lap.latMS, ms)
	}
	r.sideLaps = append(r.sideLaps, lap)
	return nil
}

// after finishes the writer's fixed quota so the final graph is the same on
// every run and takes the quality probe on it.
func (r *coldRun) after(tr *tracer) (side, error) {
	sd := side{laps: r.sideLaps}
	for r.nextIngest < r.ingestEnd {
		if err := r.ingestNext(); err != nil {
			return sd, err
		}
	}
	publish(r.e)
	var err error
	sd.quality, err = r.quality(tr)
	return sd, err
}

func (r *coldRun) counts() (int, int) { return r.attempted, 0 }

func (r *coldRun) info() map[string]any {
	return map[string]any{
		"dataset": r.ds.String(), "callers": r.spec.callers,
		"ingested_continuation": r.nextIngest - r.ds.TrainEnd,
	}
}

func (r *coldRun) layers(tr *tracer, wallS float64) (metrics, error) {
	m, err := r.serveLayers(tr, wallS)
	if err != nil {
		return nil, err
	}
	if s := tr.byName()["serve.Ingest.block"]; s != nil {
		m["serve.ingest_us_per_event"] = s.totMS * 1e3 / float64(s.count*snapshotEvery)
	}
	return m, nil
}
