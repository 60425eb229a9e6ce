package serve

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"taser/internal/overload"
	"taser/internal/sampler"
	"taser/internal/tensor"
)

// reqKind distinguishes the two serving request types.
type reqKind int

const (
	reqEmbed   reqKind = iota // one root: (src, t)
	reqPredict                // two roots: (src, t) and (dst, t)
)

// request is one in-flight serving call, handed to the scheduler goroutine.
type request struct {
	kind     reqKind
	src, dst int32
	t        float64
	out      chan response // buffered (1): the scheduler never blocks on a reply
}

// requestPool recycles request headers and their response channels across
// calls: the scheduler drops its reference once it has sent the (single)
// response, so after the caller receives it the request is free for reuse.
var requestPool = sync.Pool{New: func() any {
	return &request{out: make(chan response, 1)}
}}

func (r *request) rootCount() int {
	if r.kind == reqPredict {
		return 2
	}
	return 1
}

// response carries the result back to the caller.
type response struct {
	emb     []float64 // embed requests: caller-owned copy
	score   float64   // predict requests: link logit
	version uint64    // snapshot version served
	weights uint64    // weight version served
	cached  bool      // every root was served from the embedding cache
	err     error
}

// EmbedResult is a served node embedding.
type EmbedResult struct {
	Embedding []float64
	Version   uint64 // snapshot version the embedding was computed on
	Weights   uint64 // weight version the embedding was computed under
	Cached    bool
}

// PredictResult is a served link-prediction logit.
type PredictResult struct {
	Score   float64
	Version uint64
	Weights uint64 // weight version the logit was computed under
	Cached  bool   // both endpoint embeddings came from the cache
}

// Embed returns node's embedding at query time t, micro-batched with
// concurrent requests against the engine's current snapshot.
func (e *Engine) Embed(node int32, t float64) (EmbedResult, error) {
	resp, err := e.submit(reqEmbed, node, 0, t)
	if err != nil {
		return EmbedResult{}, err
	}
	return EmbedResult{Embedding: resp.emb, Version: resp.version, Weights: resp.weights, Cached: resp.cached}, nil
}

// PredictLink returns the link-prediction logit for (src, dst) at query time
// t: both endpoints are embedded (sharing the micro-batch with concurrent
// requests) and scored by the edge predictor.
func (e *Engine) PredictLink(src, dst int32, t float64) (PredictResult, error) {
	resp, err := e.submit(reqPredict, src, dst, t)
	if err != nil {
		return PredictResult{}, err
	}
	return PredictResult{Score: resp.score, Version: resp.version, Weights: resp.weights, Cached: resp.cached}, nil
}

// submit validates, enqueues a pooled request, and waits. Once the scheduler
// has accepted a request it is guaranteed a response, even if Close races
// with the wait. With admission control on, the request first enters the
// gate's predict lane: a full lane sheds immediately with ErrOverload (the
// HTTP 429 path) instead of queueing without bound, and the measured latency
// includes the gate wait — the queueing delay the SLO controller must see.
func (e *Engine) submit(kind reqKind, src, dst int32, t float64) (response, error) {
	if src < 0 || int(src) >= e.cfg.NumNodes || (kind == reqPredict && (dst < 0 || int(dst) >= e.cfg.NumNodes)) {
		return response{}, fmt.Errorf("serve: node id out of range [0, %d)", e.cfg.NumNodes)
	}
	// A non-finite t embeds to NaN, and +Inf passes the cache's t >= lastTs
	// test: one call would poison the node's entry for every later query.
	if math.IsNaN(t) || math.IsInf(t, 0) {
		return response{}, fmt.Errorf("serve: query time %v is not finite", t)
	}
	start := time.Now() // before the gate: measured latency includes admission wait
	if err := e.enter(overload.LanePredict); err != nil {
		return response{}, err
	}
	defer e.leave(overload.LanePredict)
	r := requestPool.Get().(*request)
	r.kind, r.src, r.dst, r.t = kind, src, dst, t
	select {
	case e.reqs <- r:
	case <-e.quit:
		requestPool.Put(r)
		return response{}, ErrClosed
	}
	resp := <-r.out
	requestPool.Put(r)
	e.lat.add(time.Since(start))
	e.requests.Add(1)
	return resp, resp.err
}

// loop is the micro-batching scheduler, a work-conserving gather (DESIGN.md
// §5): block for the first request, take every request parked on the
// unbuffered e.reqs, and when it runs dry yield the processor once — callers
// that are runnable but have not reached their send yet (at GOMAXPROCS=1, all
// but the one that woke this goroutine) get there — and take again. The
// gather ends at MaxBatch roots, when a yield surfaced nobody, or MaxWait
// after the first arrival, and always in a flush, so an accepted request is
// never stranded and quit is only looked at between batches. Submitters park
// on e.reqs while a flush runs: the next batch forms behind it, 1 root when
// idle, MaxBatch when saturated. curMaxBatch is the static config or the SLO
// controller's retuned value (an atomic read, re-read per request so a
// control decision takes effect mid-stream).
func (e *Engine) loop() {
	defer e.wg.Done()
	var pending []*request
	for {
		select {
		case r := <-e.reqs:
			pending = append(pending, r)
		case <-e.quit:
			return
		}
		first, roots := time.Now(), pending[0].rootCount()
	gather:
		for yielded := false; roots < e.curMaxBatch(); {
			select {
			case r := <-e.reqs:
				pending = append(pending, r)
				roots += r.rootCount()
				yielded = false
			default:
				if yielded || time.Since(first) >= e.cfg.MaxWait {
					break gather // nobody else is about to submit, or out of time
				}
				runtime.Gosched()
				yielded = true
			}
		}
		e.flush(pending)
		clear(pending)
		pending = pending[:0]
	}
}

// targetState is one deduplicated (node, t) root within a flush.
type targetState struct {
	node      int32
	t         float64
	keyTs     float64 // cache key: the node's last event time, or -Inf for an event-less node
	cacheable bool    // t ≥ last event time (or no events at all) and the cache is enabled
	cached    bool
	emb       []float64 // view into flushScratch.embBuf
}

// tkey deduplicates (node, t) roots within one flush.
type tkey struct {
	node int32
	t    float64
}

// flushScratch is the scheduler's per-flush working set, reused across
// flushes so steady-state serving performs O(1) amortized allocations per
// micro-batch. Owned, like the builder and its graph, by the scheduler
// goroutine.
type flushScratch struct {
	index      map[tkey]int
	states     []targetState
	sIdx, dIdx []int
	miss       []int
	roots      []sampler.Target
	embBuf     []float64 // backing slab for targetState.emb views
	scores     []float64
	srcRows    []int32
	dstRows    []int32
	which      []int
	embMat     *tensor.Matrix // gathered-scoring input, rebuilt per flush
}

// flush serves one micro-batch: pin the latest snapshot, retarget the builder
// if the snapshot advanced, resolve roots through the embedding cache,
// build + forward the misses in one pooled minibatch, then score and respond.
// All model compute runs on the builder's reusable arena-backed graph;
// embeddings are copied out of it (into fs.embBuf, the cache, and per-caller
// response copies) before the next checkout, per the §7 ownership contract —
// arena slabs never alias the pinned snapshot, whose views the builder only
// reads.
func (e *Engine) flush(pending []*request) {
	snap := e.snap.Load()
	if snap.Version != e.builderVersion {
		if err := e.builder.SwapGraph(snap.TCSR, snap.EdgeFeat); err != nil {
			for _, r := range pending {
				r.out <- response{err: err}
			}
			return
		}
		e.builderVersion = snap.Version
	}
	// Pin a weight version for the whole micro-batch: if a fine-tuner
	// published a newer immutable set, copy it into the serving parameters
	// now, before any cache lookup or forward. The copy runs on the
	// scheduler goroutine (the only writer and reader of these Vars), so
	// publication never blocks a request and a request never observes a
	// half-applied update.
	if w := e.weights.Load(); w != nil && w.Version > e.weightVersion.Load() {
		start := time.Now()
		if err := w.LoadInto(e.cfg.Model, e.cfg.Pred); err != nil {
			for _, r := range pending {
				r.out <- response{err: err}
			}
			return
		}
		e.swapNanos.Add(int64(time.Since(start)))
		e.weightVersion.Store(w.Version)
		e.weightSwaps.Add(1)
	}
	wv := e.weightVersion.Load()

	// Deduplicate roots: identical (node, t) pairs in one batch share a
	// single embedding computation (Zipfian traffic makes this common).
	fs := &e.fs
	if fs.index == nil {
		fs.index = make(map[tkey]int)
	}
	clear(fs.index)
	fs.states = fs.states[:0]
	d := e.cfg.Model.HiddenDim()
	// Pre-size the embedding slab: emb views must stay valid for the whole
	// flush, so the slab cannot grow once the first view is taken.
	if need := 2 * len(pending) * d; cap(fs.embBuf) < need {
		fs.embBuf = make([]float64, need)
	}
	resolve := func(node int32, t float64) int {
		k := tkey{node, t}
		if i, ok := fs.index[k]; ok {
			return i
		}
		st := targetState{node: node, t: t}
		off := len(fs.states) * d
		st.emb = fs.embBuf[off : off+d : off+d]
		// Cache only queries at-or-after the node's last event: for those,
		// N(node, t) equals the neighborhood the cached entry was computed
		// on, so the entry is exact up to time-encoding drift. A node with
		// no events yet has an empty neighborhood at every t — cacheable
		// under the -Inf key, which no real last event time (a t=0 one
		// included) can collide with; its first event flips the key.
		lastTs, hasLast := snap.LastEventTime(node)
		st.keyTs = lastTs
		if !hasLast {
			st.keyTs = math.Inf(-1)
		}
		st.cacheable = e.cache != nil && (!hasLast || t >= lastTs)
		if st.cacheable && e.cache.get(node, st.keyTs, wv, st.emb) {
			st.cached = true
		}
		fs.index[k] = len(fs.states)
		fs.states = append(fs.states, st)
		return len(fs.states) - 1
	}
	fs.sIdx = fs.sIdx[:0]
	fs.dIdx = fs.dIdx[:0]
	for _, r := range pending {
		fs.sIdx = append(fs.sIdx, resolve(r.src, r.t))
		di := -1
		if r.kind == reqPredict {
			di = resolve(r.dst, r.t)
		}
		fs.dIdx = append(fs.dIdx, di)
	}

	// Build + forward the cache misses as one minibatch, padded to the next
	// power of two so the buffer pool sees a handful of shape classes instead
	// of one per distinct batch size. Forward is row-local (attention,
	// normalization and token mixing all stay within a target's rows), so
	// padding with sentinel roots never perturbs real outputs.
	fs.miss = fs.miss[:0]
	for i := range fs.states {
		if !fs.states[i].cached {
			fs.miss = append(fs.miss, i)
		}
	}
	if len(fs.miss) > 0 {
		fs.roots = fs.roots[:0]
		for _, si := range fs.miss {
			fs.roots = append(fs.roots, sampler.Target{Node: fs.states[si].node, Time: fs.states[si].t})
		}
		for len(fs.roots) < padBatch(len(fs.miss)) {
			fs.roots = append(fs.roots, sampler.Target{})
		}
		mb := e.builder.Build(fs.roots)
		g := e.builder.ForwardGraph()
		out, _ := e.cfg.Model.Forward(g, mb)
		for i, si := range fs.miss {
			copy(fs.states[si].emb, out.Val.Row(i))
		}
		e.builder.Release(mb)
		for _, si := range fs.miss {
			if st := &fs.states[si]; st.cacheable {
				e.cache.put(st.node, st.keyTs, wv, st.emb)
			}
		}
		e.batches.Add(1)
		e.roots.Add(uint64(len(fs.miss)))
	}

	// Score predict requests in one gathered pass over the resolved
	// embeddings — the same decoder path offline evaluation uses.
	scores := e.scorePairs(pending)

	for i, r := range pending {
		resp := response{version: snap.Version, weights: wv}
		switch r.kind {
		case reqEmbed:
			// Copy: the response escapes to the caller, and deduplicated
			// requests must not share one backing array.
			resp.emb = append([]float64(nil), fs.states[fs.sIdx[i]].emb...)
			resp.cached = fs.states[fs.sIdx[i]].cached
		case reqPredict:
			resp.score = scores[i]
			resp.cached = fs.states[fs.sIdx[i]].cached && fs.states[fs.dIdx[i]].cached
		}
		r.out <- resp
	}
}

// scorePairs runs the edge predictor over every predict request in one
// gathered forward; returns a slice (flush-scratch-owned) aligned with
// pending, zero for embeds.
func (e *Engine) scorePairs(pending []*request) []float64 {
	fs := &e.fs
	fs.scores = fs.scores[:0]
	for range pending {
		fs.scores = append(fs.scores, 0)
	}
	n := 0
	for _, r := range pending {
		if r.kind == reqPredict {
			n++
		}
	}
	if n == 0 {
		return fs.scores
	}
	d := e.cfg.Model.HiddenDim()
	if fs.embMat == nil {
		fs.embMat = tensor.New(len(fs.states), d)
	} else {
		fs.embMat.Resize(len(fs.states), d)
	}
	for i := range fs.states {
		copy(fs.embMat.Row(i), fs.states[i].emb)
	}
	fs.srcRows = fs.srcRows[:0]
	fs.dstRows = fs.dstRows[:0]
	fs.which = fs.which[:0]
	for i, r := range pending {
		if r.kind != reqPredict {
			continue
		}
		fs.srcRows = append(fs.srcRows, int32(fs.sIdx[i]))
		fs.dstRows = append(fs.dstRows, int32(fs.dIdx[i]))
		fs.which = append(fs.which, i)
	}
	// Fresh checkout of the builder graph: the forward-pass embeddings were
	// already copied into fs.embBuf, so resetting here is safe.
	g := e.builder.ForwardGraph()
	logits := e.cfg.Pred.ScoreGathered(g, g.Const(fs.embMat), fs.srcRows, fs.dstRows)
	for j, i := range fs.which {
		fs.scores[i] = logits.Val.Data[j]
	}
	return fs.scores
}

// padBatch rounds n up to the next power of two (the pool shape classes).
func padBatch(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}
