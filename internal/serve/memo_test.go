package serve

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"taser/internal/autograd"
	"taser/internal/datasets"
	"taser/internal/mathx"
	"taser/internal/models"
	"taser/internal/sampler"
	"taser/internal/train"
)

// memoFreeScorer is the reference the memo is held to: a fresh build through
// an InferenceBuilder without a Memo and a plain forward, on a given snapshot
// under its own copy of the weights.
type memoFreeScorer struct {
	b     *train.InferenceBuilder
	ver   uint64
	model models.TGNN
	pred  *models.EdgePredictor
}

func (r *memoFreeScorer) score(t *testing.T, snap *Snapshot, src, dst int32, at float64) float64 {
	t.Helper()
	if snap.Version != r.ver {
		if err := r.b.SwapGraph(snap.TCSR, snap.EdgeFeat); err != nil {
			t.Fatal(err)
		}
		r.ver = snap.Version
	}
	mb := r.b.Build([]sampler.Target{{Node: src, Time: at}, {Node: dst, Time: at}})
	defer r.b.Release(mb)
	g := autograd.New()
	emb, _ := r.model.Forward(g, mb)
	return r.pred.ScoreGathered(g, emb, []int32{0}, []int32{1}).Val.Data[0]
}

// TestMemoServesBitwiseMemoFree is the memo's anchor: every score served
// equals the memo-free forward on the snapshot and weights it was served
// under, bit for bit. The stream mixes historical, at-watermark and future
// query times in concurrent rounds that share micro-batches, with ingests at
// the watermark's own timestamp, snapshot swaps, a weight publication, and a
// table bound small enough to overflow. It re-queries a (node, t) beyond the
// watermark after ingesting an event for that node between the watermark and
// t, and, after the weight swap, queries that hit before it.
func TestMemoServesBitwiseMemoFree(t *testing.T) {
	ds := datasets.Wikipedia(0.2, 13)
	half := len(ds.Graph.Events) / 2
	tr, err := train.New(train.Config{
		Model: train.ModelTGAT, Finder: train.FinderGPU, FinderPolicy: "recent",
		Hidden: 12, TimeDim: 6, BatchSize: 32, Seed: 11,
	}, ds)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{
		Model: tr.Model.Clone(), Pred: tr.Pred.Clone(),
		NumNodes: ds.Spec.NumNodes, NodeFeat: ds.NodeFeat, EdgeDim: ds.Spec.EdgeDim,
		Budget: tr.Cfg.N, Policy: sampler.MostRecent,
		MaxBatch: 8, MaxWait: 50 * time.Millisecond, SnapshotEvery: 16, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.memo.bound = 150 // set before the first request reaches the scheduler
	if err := e.Bootstrap(ds.Graph.Events[:half], ds.EdgeFeat.SliceRows(half)); err != nil {
		t.Fatal(err)
	}
	snap := e.Pin()
	b, err := train.NewInferenceBuilder(train.InferConfig{
		TCSR: snap.TCSR, NodeFeat: ds.NodeFeat, EdgeFeat: snap.EdgeFeat,
		Layers: 2, Budget: tr.Cfg.N, Policy: sampler.MostRecent, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	ref := &memoFreeScorer{b: b, ver: snap.Version, model: tr.Model.Clone(), pred: tr.Pred.Clone()}

	type query struct {
		src, dst int32
		at       float64
	}
	check := func(label string, qs []query) {
		t.Helper()
		snap := e.PublishSnapshot()
		got := make([]PredictResult, len(qs))
		errs := make([]error, len(qs))
		var wg sync.WaitGroup
		for i, q := range qs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i], errs[i] = e.PredictLink(q.src, q.dst, q.at)
			}()
		}
		wg.Wait()
		for i, q := range qs {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			if got[i].Version != snap.Version {
				t.Fatalf("%s: served on snapshot %d, pinned %d", label, got[i].Version, snap.Version)
			}
			want := ref.score(t, snap, q.src, q.dst, q.at)
			if math.Float64bits(got[i].Score) != math.Float64bits(want) {
				t.Fatalf("%s: (%d, %d) at t=%v on snapshot %d, weights %d: served %v, memo-free %v (memo %+v)",
					label, q.src, q.dst, q.at, snap.Version, got[i].Weights, got[i].Score, want, e.Stats())
			}
		}
	}

	rng := mathx.NewRNG(17)
	next := half
	ingest := func(n int, sameTime bool) {
		t.Helper()
		for i := 0; i < n && next < len(ds.Graph.Events); i++ {
			ev := ds.Graph.Events[next]
			at := ev.Time
			if wm, _ := e.Watermark(); sameTime || at < wm {
				at = wm // an event at the watermark's own timestamp is admitted
			}
			if err := e.Ingest(ev.Src, ev.Dst, at, ds.EdgeFeat.Row(next)); err != nil {
				t.Fatal(err)
			}
			next++
		}
	}
	// A round of queries whose times are historical (an earlier event's
	// time), at the watermark, or beyond it, over nodes that have events.
	round := func() []query {
		wm, _ := e.Watermark()
		qs := make([]query, 6)
		for i := range qs {
			ev := ds.Graph.Events[rng.Intn(next)]
			other := ds.Graph.Events[rng.Intn(next)]
			at := ds.Graph.Events[rng.Intn(next)].Time
			switch i % 3 {
			case 1:
				at = wm
			case 2:
				at = wm + 1 + 10*rng.Float64()
			}
			qs[i] = query{ev.Src, other.Dst, at}
		}
		return qs
	}

	var before [][]query
	for r := 0; r < 30; r++ {
		ingest(rng.Intn(6), r%4 == 0)
		qs := round()
		check(fmt.Sprintf("round %d", r), qs)
		check(fmt.Sprintf("round %d again", r), qs) // the same (u, t) targets, now held
		before = append(before, qs)
	}

	// A (node, t) beyond the watermark, then an event for that node between
	// the watermark and t, then the same query: nothing beyond the watermark
	// may have been held.
	wm, _ := e.Watermark()
	ev := ds.Graph.Events[next]
	future := query{ev.Src, ev.Dst, wm + 50}
	check("future", []query{future})
	if err := e.Ingest(ev.Src, ev.Dst, wm+20, ds.EdgeFeat.Row(next)); err != nil {
		t.Fatal(err)
	}
	next++
	check("future after an event before it", []query{future})

	// A weight publication: everything held was computed under version 1.
	w := models.CaptureWeights(2, tr.Model, tr.Pred)
	for _, m := range w.Params {
		m.ScaleInPlace(1.05)
	}
	if err := e.PublishWeights(w); err != nil {
		t.Fatal(err)
	}
	if err := w.LoadInto(ref.model, ref.pred); err != nil {
		t.Fatal(err)
	}
	for r, qs := range before[len(before)-5:] {
		check(fmt.Sprintf("after the weight swap, round %d", r), qs)
	}

	st := e.Stats()
	t.Logf("memo: %d hits, %d misses, %d rows held, %d resets", st.MemoHits, st.MemoMisses, st.MemoEntries, st.MemoResets)
	if st.WeightVersion != 2 {
		t.Fatalf("weights %d, want 2", st.WeightVersion)
	}
	if st.MemoHits == 0 || st.MemoMisses == 0 {
		t.Fatalf("the stream must both hit and miss the memo: %+v", st)
	}
	if st.MemoResets < 2 { // the weight swap, and at least one overflow
		t.Fatalf("memo reset %d times; the bound of %d rows must have overflowed", st.MemoResets, e.memo.bound)
	}
	if st.MemoEntries <= 0 || st.MemoEntries > int64(e.memo.bound) {
		t.Fatalf("memo holds %d rows, bound %d", st.MemoEntries, e.memo.bound)
	}
}
