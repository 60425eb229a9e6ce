package serve

import (
	"errors"
	"math"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"taser/internal/autograd"
	"taser/internal/datasets"
	"taser/internal/sampler"
	"taser/internal/tensor"
	"taser/internal/train"
)

// newTestEngine builds an offline trainer (source of model + predictor) and
// an engine over the same dataset, bootstrapped with every event. The
// trainer uses the deterministic most-recent policy so offline builds are
// comparable with served ones.
func newTestEngine(t testing.TB, ds *datasets.Dataset, mutate func(*Config)) (*Engine, *train.Trainer) {
	t.Helper()
	tr, err := train.New(train.Config{
		Model: train.ModelTGAT, Finder: train.FinderGPU, FinderPolicy: "recent",
		Hidden: 12, TimeDim: 6, BatchSize: 32, Seed: 11,
	}, ds)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Model: tr.Model, Pred: tr.Pred,
		NumNodes: ds.Spec.NumNodes, NodeFeat: ds.NodeFeat, EdgeDim: ds.Spec.EdgeDim,
		Budget: tr.Cfg.N, Policy: sampler.MostRecent,
		MaxBatch: 8, MaxWait: time.Millisecond, SnapshotEvery: 64, Seed: 3,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	if err := e.Bootstrap(ds.Graph.Events, ds.EdgeFeat); err != nil {
		t.Fatal(err)
	}
	return e, tr
}

// offlineEmbed computes the reference embedding through the trainer's
// exported build path and a plain forward — the offline eval code path.
func offlineEmbed(tr *train.Trainer, roots []sampler.Target) [][]float64 {
	mb := tr.BuildMiniBatch(roots)
	g := autograd.New()
	emb, _ := tr.Model.Forward(g, mb)
	out := make([][]float64, len(roots))
	for i := range roots {
		out[i] = append([]float64(nil), emb.Val.Row(i)...)
	}
	return out
}

// TestServedEmbeddingMatchesOffline is the acceptance determinism check:
// on a pinned snapshot equal to the offline dataset, a served embedding is
// bitwise-equal to the embedding the offline eval path computes — cold cache,
// warm cache (same key), and inside a padded multi-request batch.
func TestServedEmbeddingMatchesOffline(t *testing.T) {
	ds := datasets.GDELT(0.02, 7) // node and edge features exercise both stores
	e, tr := newTestEngine(t, ds, func(c *Config) { c.CacheSize = 64 })

	snap := e.Pin()
	if snap.NumEvents() != len(ds.Graph.Events) {
		t.Fatalf("snapshot has %d events, want %d", snap.NumEvents(), len(ds.Graph.Events))
	}
	queryT := snap.Watermark + 1

	nodes := []int32{0, 1, 7, 33, 100}
	for _, v := range nodes {
		want := offlineEmbed(tr, []sampler.Target{{Node: v, Time: queryT}})[0]
		got, err := e.Embed(v, queryT)
		if err != nil {
			t.Fatal(err)
		}
		if got.Version != snap.Version {
			t.Fatalf("served on version %d, pinned %d", got.Version, snap.Version)
		}
		for j := range want {
			if got.Embedding[j] != want[j] {
				t.Fatalf("node %d cold emb[%d]: served %v offline %v", v, j, got.Embedding[j], want[j])
			}
		}
		// Warm path: the cache must return the identical vector.
		again, err := e.Embed(v, queryT+5)
		if err != nil {
			t.Fatal(err)
		}
		if !again.Cached {
			t.Fatalf("node %d second embed not served from cache", v)
		}
		for j := range want {
			if again.Embedding[j] != want[j] {
				t.Fatalf("node %d cached emb[%d] diverged", v, j)
			}
		}
	}
}

// TestServedPredictionMatchesOffline checks the scored path: the served link
// logit equals scoring the offline embeddings with the same predictor.
func TestServedPredictionMatchesOffline(t *testing.T) {
	ds := datasets.Wikipedia(0.02, 9)
	e, tr := newTestEngine(t, ds, nil) // cache off: every root computed fresh

	queryT := e.Pin().Watermark + 1
	ev := ds.Graph.Events[len(ds.Graph.Events)-1]
	src, dst := ev.Src, ev.Dst

	embs := offlineEmbed(tr, []sampler.Target{{Node: src, Time: queryT}, {Node: dst, Time: queryT}})
	g := autograd.New()
	logit := tr.Pred.ScoreGathered(g,
		autograd.NewConst(rowsToMatrix(embs)), []int32{0}, []int32{1})
	want := logit.Val.Data[0]

	got, err := e.PredictLink(src, dst, queryT)
	if err != nil {
		t.Fatal(err)
	}
	if got.Score != want {
		t.Fatalf("served score %v, offline %v", got.Score, want)
	}
}

// TestIngestWatermarkRejection: stale events are refused with the watermark
// in the error, and the error unwraps to ErrStaleEvent.
func TestIngestWatermarkRejection(t *testing.T) {
	ds := datasets.Wikipedia(0.02, 3)
	e, _ := newTestEngine(t, ds, nil)

	wm, ok := e.Watermark()
	if !ok {
		t.Fatal("bootstrapped engine must report a watermark")
	}
	err := e.Ingest(1, 2, wm-1, nil)
	if err == nil {
		t.Fatal("stale event must be rejected")
	}
	if !errors.Is(err, ErrStaleEvent) {
		t.Fatalf("error must wrap ErrStaleEvent: %v", err)
	}
	if !strings.Contains(err.Error(), "watermark") {
		t.Fatalf("error must name the watermark: %v", err)
	}
	if got, _ := e.Watermark(); got != wm {
		t.Fatal("rejected event must not advance the watermark")
	}
	// At-watermark and ahead-of-watermark events are admitted.
	if err := e.Ingest(1, 2, wm, make([]float64, ds.Spec.EdgeDim)); err != nil {
		t.Fatal(err)
	}
	if err := e.Ingest(2, 3, wm+4, nil); err != nil {
		t.Fatal(err)
	}
	if got, _ := e.Watermark(); got != wm+4 {
		t.Fatalf("watermark = %v, want %v", got, wm+4)
	}
}

// TestIngestNegativeStartStream is the watermark-initialization regression at
// the engine level: a fresh (un-bootstrapped) engine must admit a first event
// before t=0 instead of treating the zero-valued watermark as real, must
// report no watermark until then, and must enforce chronology afterwards.
func TestIngestNegativeStartStream(t *testing.T) {
	ds := datasets.Wikipedia(0.02, 23)
	tr, err := train.New(train.Config{
		Model: train.ModelTGAT, Finder: train.FinderGPU, FinderPolicy: "recent",
		Hidden: 12, TimeDim: 6, BatchSize: 32, Seed: 11,
	}, ds)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{
		Model: tr.Model, Pred: tr.Pred,
		NumNodes: ds.Spec.NumNodes, NodeFeat: ds.NodeFeat, EdgeDim: ds.Spec.EdgeDim,
		Budget: tr.Cfg.N, Policy: sampler.MostRecent, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)

	if _, ok := e.Watermark(); ok {
		t.Fatal("fresh engine must report no watermark")
	}
	if st := e.Stats(); st.HasWatermark {
		t.Fatal("pre-ingest snapshot must report no watermark")
	}
	if err := e.Ingest(0, 1, -7.5, nil); err != nil {
		t.Fatalf("first event at t=-7.5 must be admitted: %v", err)
	}
	if wm, ok := e.Watermark(); !ok || wm != -7.5 {
		t.Fatalf("watermark = %v (ok=%v), want -7.5", wm, ok)
	}
	if err := e.Ingest(1, 2, -9, nil); !errors.Is(err, ErrStaleEvent) {
		t.Fatalf("event behind a negative watermark must be stale: %v", err)
	}
	if err := e.Ingest(1, 2, -7.5, nil); err != nil {
		t.Fatalf("equal negative timestamp must be admitted: %v", err)
	}
	snap := e.PublishSnapshot()
	if !snap.HasWatermark || snap.Watermark != -7.5 {
		t.Fatalf("published watermark = %v (has=%v), want -7.5", snap.Watermark, snap.HasWatermark)
	}
	if st := e.Stats(); !st.HasWatermark || st.Watermark != -7.5 {
		t.Fatalf("stats watermark = %v (has=%v), want -7.5", st.Watermark, st.HasWatermark)
	}
	// The negative-time events are servable.
	if _, err := e.Embed(0, 0); err != nil {
		t.Fatal(err)
	}
}

// TestCacheKeyDistinguishesEmptyFromTimeZero: an embedding cached for a node
// with no events must stop being served once the node's first event arrives
// at t=0 — "no events" and "last event at t=0" are different cache keys, the
// same zero-value distinction the watermark makes.
func TestCacheKeyDistinguishesEmptyFromTimeZero(t *testing.T) {
	ds := datasets.Wikipedia(0.02, 31)
	tr, err := train.New(train.Config{
		Model: train.ModelTGAT, Finder: train.FinderGPU, FinderPolicy: "recent",
		Hidden: 12, TimeDim: 6, BatchSize: 32, Seed: 11,
	}, ds)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{
		Model: tr.Model, Pred: tr.Pred,
		NumNodes: ds.Spec.NumNodes, NodeFeat: ds.NodeFeat, EdgeDim: ds.Spec.EdgeDim,
		Budget: tr.Cfg.N, Policy: sampler.MostRecent, CacheSize: 32, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)

	const v = int32(4)
	if _, err := e.Embed(v, 5); err != nil { // cold: caches the empty-neighborhood embedding
		t.Fatal(err)
	}
	warm, err := e.Embed(v, 9) // event-less nodes are cacheable at any query time
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Cached {
		t.Fatal("second embed of an event-less node must be a cache hit")
	}

	if err := e.Ingest(v, v+1, 0, nil); err != nil { // first event, at exactly t=0
		t.Fatal(err)
	}
	snap := e.PublishSnapshot()
	after, err := e.Embed(v, 1)
	if err != nil {
		t.Fatal(err)
	}
	if after.Cached {
		t.Fatal("embed after the node's first t=0 event must not be served from the pre-event cache entry")
	}
	if after.Version != snap.Version {
		t.Fatalf("served version %d, want %d", after.Version, snap.Version)
	}
	for j := range warm.Embedding {
		if warm.Embedding[j] != after.Embedding[j] {
			return // the new edge visibly changed the embedding, as it must
		}
	}
	t.Fatal("embedding unchanged by the node's first event")
}

// TestCacheInvalidationByIngest: an event touching a node changes its
// (node, last-event-time) key in the next snapshot, so the cached embedding
// stops being served.
func TestCacheInvalidationByIngest(t *testing.T) {
	ds := datasets.Wikipedia(0.02, 5)
	e, _ := newTestEngine(t, ds, func(c *Config) { c.CacheSize = 32 })

	v := ds.Graph.Events[0].Src
	queryT := e.Pin().Watermark + 1
	if _, err := e.Embed(v, queryT); err != nil { // cold: fills the cache
		t.Fatal(err)
	}
	warm, err := e.Embed(v, queryT)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Cached {
		t.Fatal("second embed must be a cache hit")
	}

	// Touch v and publish: the key moves, the entry goes stale.
	if err := e.Ingest(v, (v+1)%int32(ds.Spec.NumNodes), queryT+1, nil); err != nil {
		t.Fatal(err)
	}
	snap := e.PublishSnapshot()
	after, err := e.Embed(v, snap.Watermark+1)
	if err != nil {
		t.Fatal(err)
	}
	if after.Cached {
		t.Fatal("embed after ingest touching the node must not be served from cache")
	}
	if after.Version != snap.Version {
		t.Fatalf("served version %d, want %d", after.Version, snap.Version)
	}
	st := e.Stats()
	if st.CacheStale == 0 {
		t.Fatal("stale lookup must be counted")
	}
}

// TestConcurrentIngestAndServe is the -race acceptance test: writers mutate
// the graph (racing for the watermark) while readers embed and predict, with
// snapshots publishing underneath. Staleness rejections are expected for the
// losing writer; everything else must succeed.
func TestConcurrentIngestAndServe(t *testing.T) {
	ds := datasets.Wikipedia(0.02, 13)
	e, _ := newTestEngine(t, ds, func(c *Config) {
		c.CacheSize = 64
		c.SnapshotEvery = 16
		c.MaxWait = 200 * time.Microsecond
	})

	base, _ := e.Watermark()
	var clock atomic.Int64
	var ingested, rejected atomic.Int64
	n := int32(ds.Spec.NumNodes)

	const writers, readers = 3, 4
	const eventsPerWriter, reqsPerReader = 150, 120
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < eventsPerWriter; i++ {
				tick := float64(clock.Add(1))
				src := int32((w*131 + i*17) % int(n))
				dst := int32((w*37 + i*101 + 1) % int(n))
				err := e.Ingest(src, dst, base+tick, nil)
				switch {
				case err == nil:
					ingested.Add(1)
				case errors.Is(err, ErrStaleEvent):
					rejected.Add(1) // lost the race between clock draw and lock
				default:
					t.Errorf("unexpected ingest error: %v", err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < reqsPerReader; i++ {
				v := int32((r*211 + i*13) % int(n))
				qt := base + float64(clock.Load()) + 1e6 // far future: always cacheable
				if i%3 == 0 {
					if _, err := e.Embed(v, qt); err != nil {
						t.Errorf("embed: %v", err)
						return
					}
				} else {
					u := int32((r*97 + i*29 + 1) % int(n))
					if _, err := e.PredictLink(v, u, qt); err != nil {
						t.Errorf("predict: %v", err)
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()

	if ingested.Load() == 0 {
		t.Fatal("no events ingested")
	}
	st := e.Stats()
	if st.Requests != writers*0+readers*reqsPerReader {
		t.Fatalf("requests = %d, want %d", st.Requests, readers*reqsPerReader)
	}
	if st.Batches == 0 {
		t.Fatal("no micro-batches executed")
	}
	if st.SnapshotVersion < 2 {
		t.Fatalf("snapshots must have published under load (version %d)", st.SnapshotVersion)
	}
	t.Logf("ingested=%d rejected=%d version=%d batches=%d avg-batch=%.1f hit=%.2f p50=%v p99=%v",
		ingested.Load(), rejected.Load(), st.SnapshotVersion, st.Batches,
		st.AvgBatch, st.CacheHitRate, st.P50, st.P99)
}

// TestCloseDrainsAndRejects: Close lands in the middle of a request stream.
// Every call returns a result or ErrClosed, nothing hangs, later calls fail
// fast with ErrClosed and every engine goroutine is gone.
func TestCloseDrainsAndRejects(t *testing.T) {
	before := runtime.NumGoroutine()
	ds := datasets.Wikipedia(0.02, 17)
	e, _ := newTestEngine(t, ds, nil)

	qt := e.Pin().Watermark + 1
	var wg sync.WaitGroup
	var served atomic.Int64
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				res, err := e.Embed(int32(i), qt)
				switch {
				case errors.Is(err, ErrClosed):
					return
				case err != nil:
					t.Errorf("caller %d: %v", i, err)
					return
				case len(res.Embedding) == 0:
					t.Errorf("caller %d: nil error with an empty embedding", i)
					return
				}
				served.Add(1)
			}
		}(i)
	}
	for served.Load() < 100 { // the stream is flowing when Close lands
		time.Sleep(time.Millisecond)
	}
	e.Close()

	joined := make(chan struct{})
	go func() { wg.Wait(); close(joined) }()
	select {
	case <-joined:
	case <-time.After(60 * time.Second):
		t.Fatal("requests hung across Close")
	}
	if _, err := e.Embed(0, qt); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-Close embed must return ErrClosed, got %v", err)
	}
	if _, err := e.PredictLink(0, 1, qt); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-Close predict must return ErrClosed, got %v", err)
	}
	waitGoroutinesGone(t, before)
}

// TestRequestValidation: out-of-range nodes and non-finite query times are
// rejected before enqueue, as client errors.
func TestRequestValidation(t *testing.T) {
	ds := datasets.Wikipedia(0.02, 19)
	e, _ := newTestEngine(t, ds, nil)
	if _, err := e.Embed(-1, 10); err == nil {
		t.Fatal("negative node must be rejected")
	}
	if _, err := e.Embed(int32(ds.Spec.NumNodes), 10); err == nil {
		t.Fatal("node beyond range must be rejected")
	}
	if _, err := e.PredictLink(0, int32(ds.Spec.NumNodes), 10); err == nil {
		t.Fatal("dst beyond range must be rejected")
	}
	for _, qt := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := e.Embed(0, qt); err == nil || statusFor(err) != http.StatusBadRequest {
			t.Fatalf("Embed at t=%v: want a 400-class error, got %v", qt, err)
		}
		if _, err := e.PredictLink(0, 1, qt); err == nil || statusFor(err) != http.StatusBadRequest {
			t.Fatalf("PredictLink at t=%v: want a 400-class error, got %v", qt, err)
		}
	}
	if st := e.Stats(); st.Requests != 0 {
		t.Fatalf("%d rejected requests reached the scheduler", st.Requests)
	}
	wm, _ := e.Watermark()
	if err := e.Ingest(0, 1, wm+1, make([]float64, ds.Spec.EdgeDim+3)); err == nil {
		t.Fatal("wrong feature width must be rejected")
	}
}

// TestNonFiniteQueryDoesNotPoisonCache: +Inf passes the cache's t >= lastTs
// test, so an unvalidated Embed(v, +Inf) stored a NaN embedding that every
// later finite query on v was answered from.
func TestNonFiniteQueryDoesNotPoisonCache(t *testing.T) {
	ds := datasets.Wikipedia(0.02, 29)
	e, _ := newTestEngine(t, ds, func(c *Config) { c.CacheSize = 32 })
	e.Embed(0, math.Inf(1)) // rejected (TestRequestValidation); what matters here is what it leaves behind
	res, err := e.Embed(0, e.Pin().Watermark+1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cached {
		t.Fatal("first finite query was served from the cache: the +Inf query left an entry behind")
	}
	for j, x := range res.Embedding {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			t.Fatalf("emb[%d] = %v after a +Inf query on the same node", j, x)
		}
	}
}

func rowsToMatrix(rows [][]float64) *tensor.Matrix {
	m := tensor.New(len(rows), len(rows[0]))
	for i, r := range rows {
		copy(m.Row(i), r)
	}
	return m
}
