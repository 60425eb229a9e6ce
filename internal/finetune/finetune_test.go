package finetune

import (
	"sync"
	"testing"
	"time"

	"taser/internal/datasets"
	"taser/internal/sampler"
	"taser/internal/serve"
	"taser/internal/train"
)

// newStack builds (engine, tuner) over a small dataset, with the engine
// owning private clones of the pretrained pair (required once weights are
// published: the scheduler writes them) and the tuner cloning its own.
func newStack(t *testing.T, ds *datasets.Dataset, cacheSize int) (*serve.Engine, *Tuner) {
	t.Helper()
	tr, err := train.New(train.Config{
		Model: train.ModelTGAT, Finder: train.FinderGPU, FinderPolicy: "recent",
		Hidden: 10, TimeDim: 6, Seed: 17,
	}, ds)
	if err != nil {
		t.Fatal(err)
	}
	e, err := serve.New(serve.Config{
		Model: tr.Model.Clone(), Pred: tr.Pred.Clone(),
		NumNodes: ds.Spec.NumNodes, NodeFeat: ds.NodeFeat, EdgeDim: ds.Spec.EdgeDim,
		Budget: 5, Policy: sampler.MostRecent, CacheSize: cacheSize,
		MaxBatch: 8, MaxWait: 200 * time.Microsecond, SnapshotEvery: 64,
		Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	tu, err := New(Config{
		Engine: e, Model: tr.Model, Pred: tr.Pred,
		NodeFeat: ds.NodeFeat, EdgeDim: ds.Spec.EdgeDim,
		NumNodes: ds.Spec.NumNodes, NumSrc: ds.Spec.NumSrc,
		Budget: 5, Policy: sampler.MostRecent,
		Interval: 5 * time.Millisecond, ReplayWindow: 256,
		BatchSize: 32, Seed: 29,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tu.Close)
	return e, tu
}

// TestPredictionsStableWithinWeightVersionUnderFinetune is this PR's -race
// acceptance test: while a writer streams ingest (publishing snapshots) and
// the fine-tuner runs rounds and publishes weight sets, concurrent
// predictors record every served score keyed by the (snapshot version,
// weight version) pair the response reports. Within one pair, scores for a
// fixed probe must be bitwise-identical across goroutines and time — weight
// swaps land only between micro-batches, snapshots only at pin points, and
// the version-keyed embedding cache never leaks an embedding across either
// boundary. Arena poison is on, so any use-after-reset in the concurrently
// reused graphs turns scores NaN and breaks the comparison.
func TestPredictionsStableWithinWeightVersionUnderFinetune(t *testing.T) {
	t.Setenv("TASER_ARENA_POISON", "1")
	ds := datasets.Wikipedia(0.06, 31)
	e, tu := newStack(t, ds, 64) // cache on: hit/miss mixing across versions

	events := ds.Graph.Events
	prefix := len(events) / 2
	for i := 0; i < prefix; i++ {
		ev := events[i]
		if err := e.Ingest(ev.Src, ev.Dst, ev.Time, ds.EdgeFeat.Row(i)); err != nil {
			t.Fatal(err)
		}
	}
	e.PublishSnapshot()
	qt := events[prefix-1].Time // at-watermark probes: later events arrive ≥ qt

	const probes = 8
	probe := func(i int) (int32, int32) {
		ev := events[(i*29)%prefix]
		return ev.Src, ev.Dst
	}

	type key struct {
		snap, weights uint64
		probe         int
	}
	var mu sync.Mutex
	seen := make(map[key]float64)

	tu.Start() // fine-tune rounds + weight publications race with everything below

	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := prefix; i < len(events); i++ {
			ev := events[i]
			ts := ev.Time
			if ts < qt {
				ts = qt
			}
			if err := e.Ingest(ev.Src, ev.Dst, ts, ds.EdgeFeat.Row(i)); err != nil {
				t.Errorf("ingest %d: %v", i, err)
				return
			}
		}
	}()
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; ; i += 3 {
				select {
				case <-done:
					return
				default:
				}
				p := i % probes
				src, dst := probe(p)
				got, err := e.PredictLink(src, dst, qt)
				if err != nil {
					t.Errorf("predict: %v", err)
					return
				}
				if got.Score != got.Score {
					t.Errorf("probe %d: NaN score under (snap %d, weights %d)", p, got.Version, got.Weights)
					return
				}
				k := key{got.Version, got.Weights, p}
				mu.Lock()
				prev, ok := seen[k]
				if !ok {
					seen[k] = got.Score
				}
				mu.Unlock()
				if ok && prev != got.Score {
					t.Errorf("probe %d diverged within (snap %d, weights %d): %v vs %v",
						p, got.Version, got.Weights, got.Score, prev)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// One deterministic round so the test cannot pass vacuously with the
	// timer never firing, then confirm serving advanced past the pretrained
	// weights.
	if _, err := tu.RunOnce(); err != nil {
		t.Fatal(err)
	}
	src, dst := probe(0)
	got, err := e.PredictLink(src, dst, qt)
	if err != nil {
		t.Fatal(err)
	}
	if got.Weights < 2 {
		t.Fatalf("after the stream and a forced round, serving still at weight version %d", got.Weights)
	}
	st := tu.Stats()
	if st.Steps == 0 || st.Published < 2 {
		t.Fatalf("tuner did no work: %+v", st)
	}
}

// TestTunerRoundsTailAndPublish drives rounds synchronously: each round
// consumes exactly the appended suffix (window-capped), publishes a fresh
// monotonic weight version, and idle rounds publish nothing.
func TestTunerRoundsTailAndPublish(t *testing.T) {
	ds := datasets.Wikipedia(0.05, 9)
	e, tu := newStack(t, ds, 0)

	if err := e.Bootstrap(ds.Graph.Events[:ds.TrainEnd], ds.EdgeFeat.SliceRows(ds.TrainEnd)); err != nil {
		t.Fatal(err)
	}
	rep, err := tu.RunOnce()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Events == 0 || rep.Published != 2 {
		t.Fatalf("bootstrap round: %+v, want events > 0 published v2", rep)
	}
	if rep.Events > 256 || rep.Skipped == 0 {
		// TrainEnd at this scale far exceeds the 256-event window.
		t.Fatalf("window cap not applied: %+v", rep)
	}

	// Idle round: nothing new ingested, nothing published.
	rep, err = tu.RunOnce()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Events != 0 || rep.Published != 0 {
		t.Fatalf("idle round: %+v", rep)
	}

	// Stream a little more, force a snapshot, run a round: only the delta is
	// consumed and the next version goes out.
	wm, _ := e.Watermark()
	for i := 0; i < 40; i++ {
		ev := ds.Graph.Events[ds.TrainEnd+i]
		ts := ev.Time
		if ts < wm {
			ts = wm
		}
		if err := e.Ingest(ev.Src, ev.Dst, ts, ds.EdgeFeat.Row(ds.TrainEnd+i)); err != nil {
			t.Fatal(err)
		}
	}
	e.PublishSnapshot()
	rep, err = tu.RunOnce()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Events != 40 || rep.Skipped != 0 || rep.Published != 3 {
		t.Fatalf("delta round: %+v, want exactly the 40 new events as v3", rep)
	}

	// Serving picks the published weights up on its next flush.
	wm, _ = e.Watermark()
	res, err := e.PredictLink(ds.Graph.Events[0].Src, ds.Graph.Events[0].Dst, wm+1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Weights != 3 {
		t.Fatalf("serving at weight version %d, want 3", res.Weights)
	}
}
