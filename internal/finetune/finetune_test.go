package finetune

import (
	"slices"
	"sync"
	"testing"
	"time"

	"taser/internal/datasets"
	"taser/internal/models"
	"taser/internal/sampler"
	"taser/internal/serve"
	"taser/internal/train"
)

// newStack builds (engine, tuner) over a small dataset, with the engine
// owning private clones of the pretrained pair (required once weights are
// published: the scheduler writes them) and the tuner cloning its own.
func newStack(t *testing.T, ds *datasets.Dataset, cacheSize int) (*serve.Engine, *Tuner) {
	t.Helper()
	tr := pretrained(t, ds)
	e := newEngine(t, tr, ds, cacheSize, "")
	return e, newTuner(t, e, tr, ds)
}

// pretrained is the model pair a process starts with (deterministic in ds).
func pretrained(t *testing.T, ds *datasets.Dataset) *train.Trainer {
	t.Helper()
	tr, err := train.New(train.Config{
		Model: train.ModelTGAT, Finder: train.FinderGPU, FinderPolicy: "recent",
		Hidden: 10, TimeDim: 6, Seed: 17,
	}, ds)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// newEngine serves clones of tr's pair; walDir != "" makes it durable.
func newEngine(t *testing.T, tr *train.Trainer, ds *datasets.Dataset, cacheSize int, walDir string) *serve.Engine {
	t.Helper()
	e, err := serve.New(serve.Config{
		Model: tr.Model.Clone(), Pred: tr.Pred.Clone(),
		NumNodes: ds.Spec.NumNodes, NodeFeat: ds.NodeFeat, EdgeDim: ds.Spec.EdgeDim,
		Budget: 5, Policy: sampler.MostRecent, CacheSize: cacheSize,
		MaxBatch: 8, MaxWait: 200 * time.Microsecond, SnapshotEvery: 64,
		Durability: serve.Durability{Dir: walDir},
		Seed:       3,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e
}

func newTuner(t *testing.T, e *serve.Engine, tr *train.Trainer, ds *datasets.Dataset) *Tuner {
	t.Helper()
	tu, err := New(Config{
		Engine: e, Model: tr.Model, Pred: tr.Pred, NumSrc: ds.Spec.NumSrc,
		Interval: 5 * time.Millisecond, ReplayWindow: 256,
		BatchSize: 32, Seed: 29,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tu.Close)
	return tu
}

// ingestTail streams n events of ds's tail, starting at event from, into e
// (times clamped to the watermark) and publishes a snapshot; it returns the
// next event to stream.
func ingestTail(t *testing.T, e *serve.Engine, ds *datasets.Dataset, from, n int) int {
	t.Helper()
	wm, _ := e.Watermark()
	for i := from; i < from+n; i++ {
		ev := ds.Graph.Events[i]
		if err := e.Ingest(ev.Src, ev.Dst, max(ev.Time, wm), ds.EdgeFeat.Row(i)); err != nil {
			t.Fatal(err)
		}
	}
	e.PublishSnapshot()
	return from + n
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
	ingestTail(t, e, ds, ds.TrainEnd, 40)
	rep, err = tu.RunOnce()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Events != 40 || rep.Skipped != 0 || rep.Published != 3 {
		t.Fatalf("delta round: %+v, want exactly the 40 new events as v3", rep)
	}

	// Serving picks the published weights up on its next flush.
	wm, _ := e.Watermark()
	res, err := e.PredictLink(ds.Graph.Events[0].Src, ds.Graph.Events[0].Dst, wm+1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Weights != 3 {
		t.Fatalf("serving at weight version %d, want 3", res.Weights)
	}
}

// TestTunerResumesFromRecoveredWeights restarts a durable engine after three
// fine-tune publications. Recover republishes checkpointed v4, and the next
// process pretrains the same v1 pair again: a tuner that numbered from the
// applied version and started from Config.Model would publish "v2" — rejected
// as not newer than v4, which stops the loop for good — from parameters that
// discard v2–v4. It must start from the recovered set and publish v5.
func TestTunerResumesFromRecoveredWeights(t *testing.T) {
	ds := datasets.Wikipedia(0.05, 9)
	tr := pretrained(t, ds)
	dir := t.TempDir()

	e := newEngine(t, tr, ds, 0, dir)
	tu := newTuner(t, e, tr, ds)
	if err := e.Bootstrap(ds.Graph.Events[:ds.TrainEnd], ds.EdgeFeat.SliceRows(ds.TrainEnd)); err != nil {
		t.Fatal(err)
	}
	next := ds.TrainEnd
	for want := uint64(2); want <= 4; want++ {
		rep, err := tu.RunOnce()
		if err != nil || rep.Published != want {
			t.Fatalf("first process, round for v%d: %+v, %v", want, rep, err)
		}
		next = ingestTail(t, e, ds, next, 40)
	}
	tu.Close()
	e.Close()

	e = newEngine(t, tr, ds, 0, dir)
	if rep, err := e.Recover(); err != nil || rep.WeightVersion != 4 {
		t.Fatalf("Recover: %+v, %v, want weights v4", rep, err)
	}
	tu = newTuner(t, e, tr, ds)
	start, v4, v1 := tu.ft.Capture(0), e.PublishedWeights(), models.CaptureWeights(0, tr.Model, tr.Pred)
	differs := false
	for i, p := range start.Params {
		if !slices.Equal(p.Data, v4.Params[i].Data) {
			t.Fatalf("tuner starts from something other than recovered v4 (tensor %d)", i)
		}
		differs = differs || !slices.Equal(p.Data, v1.Params[i].Data)
	}
	if !differs {
		t.Fatal("v4 equals the pretrained weights: the test would pass vacuously")
	}

	rep, err := tu.RunOnce() // the recovered stream is new to this tuner's tail
	if err != nil || rep.Events == 0 || rep.Published != 5 {
		t.Fatalf("restarted tuner's first round: %+v, %v, want a non-idle round publishing v5", rep, err)
	}

	// The background loop's first non-idle tick publishes v6 instead of
	// failing and stopping.
	ingestTail(t, e, ds, next, 40)
	tu.Start()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		st := tu.Stats()
		if st.Failed != "" {
			t.Fatalf("fine-tune loop stopped: %s", st.Failed)
		}
		if st.Published >= 6 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no publication from the started loop: %+v", st)
		}
	}
}
