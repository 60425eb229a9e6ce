package serve

import (
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"taser/internal/datasets"
	"taser/internal/sampler"
	"taser/internal/tensor"
	"taser/internal/tgraph"
	"taser/internal/train"
	"taser/internal/wal"
)

// newMixerTrainer pretrains nothing — train.New deterministically initializes
// a 1-layer GraphMixer (the model class a K>1 fleet requires) so every engine
// and fleet built from the same dataset starts from bitwise-identical weights.
func newMixerTrainer(t testing.TB, ds *datasets.Dataset) *train.Trainer {
	t.Helper()
	tr, err := train.New(train.Config{
		Model: train.ModelGraphMixer, Finder: train.FinderGPU, FinderPolicy: "recent",
		Hidden: 12, TimeDim: 6, BatchSize: 32, Seed: 11,
	}, ds)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// fleetBaseConfig is the shared per-shard template: NewFleet clones
// Model/Pred out of it, so the same trainer can seed a fleet and a reference
// engine with identical weights.
func fleetBaseConfig(tr *train.Trainer, ds *datasets.Dataset) Config {
	return Config{
		Model: tr.Model, Pred: tr.Pred,
		NumNodes: ds.Spec.NumNodes, NodeFeat: ds.NodeFeat, EdgeDim: ds.Spec.EdgeDim,
		Budget: tr.Cfg.N, Policy: sampler.MostRecent,
		MaxBatch: 8, MaxWait: time.Millisecond, SnapshotEvery: 64, Seed: 3,
	}
}

func newTestFleet(t testing.TB, tr *train.Trainer, ds *datasets.Dataset, shards int, mutate func(*FleetConfig)) *Fleet {
	t.Helper()
	fc := FleetConfig{Config: fleetBaseConfig(tr, ds), Shards: shards}
	if mutate != nil {
		mutate(&fc)
	}
	f, err := NewFleet(fc)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	return f
}

// newRefEngine builds a single reference engine owning weight clones, so the
// fleet and the reference start bitwise-identical and stay independent.
func newRefEngine(t testing.TB, tr *train.Trainer, ds *datasets.Dataset) *Engine {
	t.Helper()
	cfg := fleetBaseConfig(tr, ds)
	cfg.Model = tr.Model.Clone()
	cfg.Pred = tr.Pred.Clone()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e
}

// TestFleetK1MatchesEngine: the anchor invariant's base case — a K=1 Fleet is
// bitwise-equivalent to a bare Engine on the same stream: watermark, event
// count, every served embedding and every served score, across a weight
// publication.
func TestFleetK1MatchesEngine(t *testing.T) {
	ds := datasets.Wikipedia(0.02, 5)
	tr := newMixerTrainer(t, ds)
	eng := newRefEngine(t, tr, ds)
	fl := newTestFleet(t, tr, ds, 1, nil)

	events := ds.Graph.Events
	half := len(events) / 2
	if err := eng.Bootstrap(events[:half], ds.EdgeFeat.SliceRows(half)); err != nil {
		t.Fatal(err)
	}
	if err := fl.Bootstrap(events[:half], ds.EdgeFeat.SliceRows(half)); err != nil {
		t.Fatal(err)
	}
	for i := half; i < len(events); i++ {
		ev := events[i]
		if err := eng.Ingest(ev.Src, ev.Dst, ev.Time, ds.EdgeFeat.Row(i)); err != nil {
			t.Fatal(err)
		}
		if err := fl.Ingest(ev.Src, ev.Dst, ev.Time, ds.EdgeFeat.Row(i)); err != nil {
			t.Fatal(err)
		}
	}

	if got, want := fl.NumEvents(), eng.NumEvents(); got != want {
		t.Fatalf("fleet has %d events, engine %d", got, want)
	}
	fwm, fok := fl.Watermark()
	ewm, eok := eng.Watermark()
	if fwm != ewm || fok != eok {
		t.Fatalf("fleet watermark %v (ok=%v), engine %v (ok=%v)", fwm, fok, ewm, eok)
	}

	// A published weight set must keep the pair in lockstep (identical sets:
	// both sides still hold the same parameter values).
	if err := eng.PublishWeights(perturbed(eng, 2, 1.01)); err != nil {
		t.Fatal(err)
	}
	if err := fl.PublishWeights(perturbed(fl.Shard(0), 2, 1.01)); err != nil {
		t.Fatal(err)
	}

	eng.PublishSnapshot()
	fl.PublishSnapshot()
	qt := ewm + 1
	for i := 0; i < 30; i++ {
		ev := events[i*len(events)/30]
		got, err := fl.PredictLink(ev.Src, ev.Dst, qt)
		if err != nil {
			t.Fatal(err)
		}
		want, err := eng.PredictLink(ev.Src, ev.Dst, qt)
		if err != nil {
			t.Fatal(err)
		}
		if got.Score != want.Score {
			t.Fatalf("probe (%d→%d): fleet %v, engine %v", ev.Src, ev.Dst, got.Score, want.Score)
		}
		if got.Weights != want.Weights {
			t.Fatalf("probe (%d→%d): fleet weights v%d, engine v%d", ev.Src, ev.Dst, got.Weights, want.Weights)
		}
		fe, err := fl.Embed(ev.Src, qt)
		if err != nil {
			t.Fatal(err)
		}
		ee, err := eng.Embed(ev.Src, qt)
		if err != nil {
			t.Fatal(err)
		}
		for j := range ee.Embedding {
			if fe.Embedding[j] != ee.Embedding[j] {
				t.Fatalf("node %d emb[%d]: fleet %v, engine %v", ev.Src, j, fe.Embedding[j], ee.Embedding[j])
			}
		}
	}
	if st := fl.Stats(); st.Teed != 0 || st.CrossShard != 0 {
		t.Fatalf("K=1 fleet teed %d events and scattered %d predicts; both must be 0", st.Teed, st.CrossShard)
	}
}

// shardShuffle produces a deterministic reordering of events[lo:hi] that is
// admissible for the fleet: each shard's subsequence (the events that land on
// it, tee included) keeps its original relative order, while the interleaving
// across shards is scrambled. This is exactly the freedom the per-shard
// watermark contract grants a multi-producer deployment.
func shardShuffle(f *Fleet, events []tgraph.Event, lo, hi int, seed uint64) []int {
	K := f.NumShards()
	queues := make([][]int, K)
	for i := lo; i < hi; i++ {
		a, b, teed := f.targets(events[i].Src, events[i].Dst)
		queues[a] = append(queues[a], i)
		if teed {
			queues[b] = append(queues[b], i)
		}
	}
	pos := make([]int, K)
	head := func(s int) (int, bool) {
		if pos[s] >= len(queues[s]) {
			return 0, false
		}
		return queues[s][pos[s]], true
	}
	admissible := func(i int) bool {
		a, b, teed := f.targets(events[i].Src, events[i].Dst)
		if h, ok := head(a); !ok || h != i {
			return false
		}
		if teed {
			if h, ok := head(b); !ok || h != i {
				return false
			}
		}
		return true
	}
	rng := seed
	next := func(n int) int {
		rng = mix64(rng)
		return int(rng % uint64(n))
	}
	order := make([]int, 0, hi-lo)
	for len(order) < hi-lo {
		var cands []int
		for s := 0; s < K; s++ {
			if i, ok := head(s); ok && admissible(i) {
				dup := false
				for _, c := range cands {
					if c == i {
						dup = true
					}
				}
				if !dup {
					cands = append(cands, i)
				}
			}
		}
		// The earliest unemitted event is always admissible, so cands is
		// never empty while work remains.
		pick := cands[next(len(cands))]
		order = append(order, pick)
		a, b, teed := f.targets(events[pick].Src, events[pick].Dst)
		pos[a]++
		if teed {
			pos[b]++
		}
	}
	return order
}

// TestShardedPredictionsMatchSingleEngine: the anchor invariant at K=4 — a
// sharded fleet fed the same stream (ingest order shuffled across shards,
// per-shard order preserved) serves predictions bitwise-equal to a single
// engine's, for same-shard and cross-shard endpoint pairs alike, and its
// embeddings match for every probed node.
func TestShardedPredictionsMatchSingleEngine(t *testing.T) {
	const K = 4
	ds := datasets.Wikipedia(0.02, 5)
	tr := newMixerTrainer(t, ds)
	eng := newRefEngine(t, tr, ds)
	fl := newTestFleet(t, tr, ds, K, nil)

	events := ds.Graph.Events
	half := len(events) / 2
	if err := eng.Bootstrap(events[:half], ds.EdgeFeat.SliceRows(half)); err != nil {
		t.Fatal(err)
	}
	if err := fl.Bootstrap(events[:half], ds.EdgeFeat.SliceRows(half)); err != nil {
		t.Fatal(err)
	}
	for i := half; i < len(events); i++ {
		ev := events[i]
		if err := eng.Ingest(ev.Src, ev.Dst, ev.Time, ds.EdgeFeat.Row(i)); err != nil {
			t.Fatal(err)
		}
	}
	order := shardShuffle(fl, events, half, len(events), 99)
	displaced := 0
	for j, i := range order {
		if half+j != i {
			displaced++
		}
		ev := events[i]
		if err := fl.Ingest(ev.Src, ev.Dst, ev.Time, ds.EdgeFeat.Row(i)); err != nil {
			t.Fatal(err)
		}
	}
	if displaced == 0 {
		t.Fatal("shardShuffle left the stream in global order; the test would not exercise reordering")
	}

	if got, want := fl.NumEvents(), eng.NumEvents(); got != want {
		t.Fatalf("fleet has %d distinct events, engine %d", got, want)
	}
	fwm, _ := fl.Watermark()
	ewm, _ := eng.Watermark()
	if fwm != ewm {
		t.Fatalf("fleet watermark %v, engine %v", fwm, ewm)
	}
	st := fl.Stats()
	wantTeed := 0
	for _, ev := range events {
		if fl.Owner(ev.Src) != fl.Owner(ev.Dst) {
			wantTeed++
		}
	}
	if int(st.Teed) != wantTeed {
		t.Fatalf("teed counter %d, want %d", st.Teed, wantTeed)
	}
	if wantTeed == 0 {
		t.Fatal("no cross-shard events at K=4; the dataset/ring combination is degenerate")
	}

	eng.PublishSnapshot()
	fl.PublishSnapshot()
	qt := ewm + 1
	var cross, local int
	for i := 0; i < len(events) && (cross < 15 || local < 15); i++ {
		ev := events[i*7919%len(events)]
		isCross := fl.Owner(ev.Src) != fl.Owner(ev.Dst)
		if isCross && cross >= 15 || !isCross && local >= 15 {
			continue
		}
		got, err := fl.PredictLink(ev.Src, ev.Dst, qt)
		if err != nil {
			t.Fatal(err)
		}
		want, err := eng.PredictLink(ev.Src, ev.Dst, qt)
		if err != nil {
			t.Fatal(err)
		}
		if got.Score != want.Score {
			t.Fatalf("probe (%d→%d, cross=%v): fleet %v, engine %v", ev.Src, ev.Dst, isCross, got.Score, want.Score)
		}
		fe, err := fl.Embed(ev.Dst, qt)
		if err != nil {
			t.Fatal(err)
		}
		ee, err := eng.Embed(ev.Dst, qt)
		if err != nil {
			t.Fatal(err)
		}
		for j := range ee.Embedding {
			if fe.Embedding[j] != ee.Embedding[j] {
				t.Fatalf("node %d emb[%d]: fleet %v, engine %v", ev.Dst, j, fe.Embedding[j], ee.Embedding[j])
			}
		}
		if isCross {
			cross++
		} else {
			local++
		}
	}
	if cross == 0 {
		t.Fatal("no cross-shard probes exercised the scatter/gather path")
	}
	if fs := fl.Stats(); fs.CrossShard == 0 {
		t.Fatal("cross-shard predict counter did not move")
	}

	// Concurrency smoke for the race detector: concurrent ingest (fresh
	// timestamps) against concurrent mixed-route predicts.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				ev := events[(w*131+i*17)%len(events)]
				if _, err := fl.PredictLink(ev.Src, ev.Dst, qt+1); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for i := 0; i < len(events) && i < 200; i++ {
		ev := events[i]
		if err := fl.Ingest(ev.Src, ev.Dst, fwm+1+float64(i), ds.EdgeFeat.Row(i)); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestFleetRejectsMultiHopModel: the tee keeps one hop locally complete, so a
// K>1 fleet must refuse a multi-layer backbone instead of silently serving
// incomplete hop-2 neighborhoods.
func TestFleetRejectsMultiHopModel(t *testing.T) {
	ds := datasets.Wikipedia(0.02, 5)
	tr, err := train.New(train.Config{
		Model: train.ModelTGAT, Finder: train.FinderGPU, FinderPolicy: "recent",
		Hidden: 12, TimeDim: 6, BatchSize: 32, Seed: 11,
	}, ds)
	if err != nil {
		t.Fatal(err)
	}
	_, err = NewFleet(FleetConfig{Config: fleetBaseConfig(tr, ds), Shards: 4})
	if err == nil || !strings.Contains(err.Error(), "one-layer") {
		t.Fatalf("K=4 with a 2-layer model must be rejected, got %v", err)
	}
	// K=1 carries no cross-shard reads: any depth is fine.
	f, err := NewFleet(FleetConfig{Config: fleetBaseConfig(tr, ds), Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
}

// TestFleetDrainOrdering is the regression for the Close/drain small fix: an
// op that passed the fleet's gate must be fully served — its scatter legs
// must never reach a closed shard scheduler — even when Close runs while it
// is in flight. Ops arriving after Close fail with ErrClosed at the gate.
func TestFleetDrainOrdering(t *testing.T) {
	const inflight = 4
	ds := datasets.Wikipedia(0.02, 5)
	tr := newMixerTrainer(t, ds)
	fl := newTestFleet(t, tr, ds, 4, nil)
	if err := fl.Bootstrap(ds.Graph.Events, ds.EdgeFeat); err != nil {
		t.Fatal(err)
	}
	var crossSrc, crossDst int32 = -1, -1
	for _, ev := range ds.Graph.Events {
		if fl.Owner(ev.Src) != fl.Owner(ev.Dst) {
			crossSrc, crossDst = ev.Src, ev.Dst
			break
		}
	}
	if crossSrc < 0 {
		t.Fatal("no cross-shard pair found")
	}
	wm, _ := fl.Watermark()

	entered := make(chan struct{}, inflight)
	release := make(chan struct{})
	fl.testEntered = func() {
		entered <- struct{}{}
		<-release
	}
	errs := make(chan error, inflight)
	for i := 0; i < inflight; i++ {
		go func() {
			_, err := fl.PredictLink(crossSrc, crossDst, wm+1)
			errs <- err
		}()
	}
	for i := 0; i < inflight; i++ {
		<-entered
	}
	closed := make(chan struct{})
	go func() {
		fl.Close() // must block until the in-flight predicts drain
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while ops were still gated in flight")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	for i := 0; i < inflight; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("in-flight predict failed during Close: %v", err)
		}
	}
	<-closed
	if _, err := fl.PredictLink(crossSrc, crossDst, wm+1); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-Close predict: want ErrClosed, got %v", err)
	}
	if err := fl.Ingest(crossSrc, crossDst, wm+2, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-Close ingest: want ErrClosed, got %v", err)
	}
}

// TestFleetStatsHTTP is the /v1/stats schema regression for the merged view:
// the top level keeps the standalone-engine keys (merged totals: distinct
// events, summed WAL counters, max watermark) and adds one full per-shard
// block per engine — each with its own WAL counters and checkpoint_age_ms —
// plus the tee/scatter accounting. /v1/healthz must aggregate shard
// readiness.
func TestFleetStatsHTTP(t *testing.T) {
	const K = 2
	ds := datasets.Wikipedia(0.02, 5)
	tr := newMixerTrainer(t, ds)
	fl := newTestFleet(t, tr, ds, K, func(fc *FleetConfig) {
		fc.Durability = Durability{Dir: t.TempDir(), SyncEvery: 4}
	})
	half := len(ds.Graph.Events) / 2
	if err := fl.Bootstrap(ds.Graph.Events[:half], ds.EdgeFeat.SliceRows(half)); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(fl))
	t.Cleanup(srv.Close)

	post := func(path string, body map[string]any) (int, map[string]any) {
		t.Helper()
		b, _ := json.Marshal(body)
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(string(b)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]any
		_ = json.NewDecoder(resp.Body).Decode(&out)
		return resp.StatusCode, out
	}

	wm, _ := fl.Watermark()
	var crossEv, localEv *tgraph.Event
	for i := range ds.Graph.Events {
		ev := &ds.Graph.Events[i]
		if fl.Owner(ev.Src) != fl.Owner(ev.Dst) {
			crossEv = ev
		} else {
			localEv = ev
		}
		if crossEv != nil && localEv != nil {
			break
		}
	}
	if crossEv == nil || localEv == nil {
		t.Fatal("need one cross-shard and one same-shard event")
	}
	feat := make([]float64, ds.Spec.EdgeDim)
	if code, out := post("/v1/ingest", map[string]any{"src": crossEv.Src, "dst": crossEv.Dst, "t": wm + 1, "feat": feat}); code != http.StatusOK {
		t.Fatalf("cross ingest: %d %v", code, out)
	}
	if code, out := post("/v1/ingest", map[string]any{"src": localEv.Src, "dst": localEv.Dst, "t": wm + 2, "feat": feat}); code != http.StatusOK {
		t.Fatalf("local ingest: %d %v", code, out)
	}
	if code, out := post("/v1/predict", map[string]any{"src": crossEv.Src, "dst": crossEv.Dst, "t": wm + 3}); code != http.StatusOK {
		t.Fatalf("cross predict: %d %v", code, out)
	}

	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st FleetStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if got, want := st.Events, half+2; got != want {
		t.Fatalf("merged events %v, want %v distinct", got, want)
	}
	if st.Teed < 1 {
		t.Fatalf("events_teed %v, want ≥ 1", st.Teed)
	}
	if st.CrossShard < 1 {
		t.Fatalf("cross_shard_predicts %v, want ≥ 1", st.CrossShard)
	}
	if st.ShardCount != K {
		t.Fatalf("shard_count %v, want %d", st.ShardCount, K)
	}
	if !st.Durable {
		t.Fatal("merged durable false, want true")
	}
	if len(st.Shards) != K {
		t.Fatalf("shards[] has %d blocks, want %d", len(st.Shards), K)
	}
	var walSum uint64
	for i, blk := range st.Shards {
		if blk.Shard != i {
			t.Fatalf("shard block %d labeled %v", i, blk.Shard)
		}
		// Per-shard durability telemetry: every shard ran a bootstrap
		// checkpoint, so age is a real (non-sentinel) value.
		if blk.CheckpointAgeMS < 0 {
			t.Fatalf("shard %d checkpoint_age_ms %v, want ≥ 0", i, blk.CheckpointAgeMS)
		}
		if blk.WALAppended == 0 {
			t.Fatalf("shard %d wal_appended %v, want > 0", i, blk.WALAppended)
		}
		walSum += blk.WALAppended
	}
	if got := st.WALAppended; got != walSum {
		t.Fatalf("merged wal_appended %v, want per-shard sum %v", got, walSum)
	}
	// The tee means physical appends exceed distinct events.
	if walSum < uint64(half+2)+1 {
		t.Fatalf("wal appends %v do not reflect the tee (distinct %d)", walSum, half+2)
	}

	hresp, err := http.Get(srv.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz %d, want 200", hresp.StatusCode)
	}
}

// TestFleetCrashRecoveryEquivalence: kill the shared filesystem mid-stream
// (wal.FaultFS byte budget across all shard WALs), restart, Recover — every
// shard must come back bitwise-equivalent to a reference engine fed exactly
// the per-shard prefix it durably admitted, with loss bounded by SyncEvery
// per shard.
func TestFleetCrashRecoveryEquivalence(t *testing.T) {
	const (
		K         = 3
		syncEvery = 8
	)
	ds := datasets.Wikipedia(0.02, 7)
	tr := newMixerTrainer(t, ds)
	base := t.TempDir()
	ff := wal.NewFaultFS(nil)
	fl := newTestFleet(t, tr, ds, K, func(fc *FleetConfig) {
		fc.Durability = Durability{Dir: base, SyncEvery: syncEvery, SegmentBytes: 4096, FS: ff}
	})
	ff.KillAfter(60_000, "wal-")

	// Ground truth: the (event index) sequence each shard durably admitted.
	// Apply order inside a tee is ascending shard index, and a ShardError
	// names the failing shard — so on the crashing ingest we know exactly
	// which owners already logged the event. The failing shard's own copy is
	// the classic indeterminate commit (the WAL write was torn, but may have
	// ended exactly on a record boundary): it may reappear as that shard's
	// recovered tail or not at all.
	perShard := make([][]int, K)
	record := func(i int, upto int) { // owners with index < upto admitted event i
		ev := ds.Graph.Events[i]
		a, b, teed := fl.targets(ev.Src, ev.Dst)
		if a < upto {
			perShard[a] = append(perShard[a], i)
		}
		if teed && b < upto {
			perShard[b] = append(perShard[b], i)
		}
	}
	killed := false
	indetShard := -1
	for i, ev := range ds.Graph.Events {
		err := fl.Ingest(ev.Src, ev.Dst, ev.Time, ds.EdgeFeat.Row(i))
		if err == nil {
			record(i, K)
			continue
		}
		if !errors.Is(err, ErrDurability) {
			t.Fatalf("event %d: %v", i, err)
		}
		var se *ShardError
		if !errors.As(err, &se) {
			t.Fatalf("durability failure not attributed to a shard: %v", err)
		}
		record(i, se.Shard) // the tee may have half-landed before the crash
		perShard[se.Shard] = append(perShard[se.Shard], i)
		indetShard = se.Shard
		killed = true
		break
	}
	if !killed {
		t.Fatal("fault budget never fired; raise the stream length or lower the budget")
	}
	fl.Close() // post-kill close: checkpoint attempts fail, must not hang

	// Restart over the same directories with a healthy filesystem.
	rec := newTestFleet(t, tr, ds, K, func(fc *FleetConfig) {
		fc.Durability = Durability{Dir: base, SyncEvery: syncEvery, SegmentBytes: 4096}
	})
	rep, err := rec.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Shards) != K {
		t.Fatalf("recovered %d shard reports, want %d", len(rep.Shards), K)
	}
	for s := 0; s < K; s++ {
		shard := rec.Shard(s)
		n := shard.NumEvents()
		admitted := perShard[s]
		definite := len(admitted)
		if s == indetShard {
			definite-- // the torn tail record may or may not have survived
		}
		if n > len(admitted) || definite-n >= syncEvery {
			t.Fatalf("shard %d recovered %d events, admitted %d definite (loss bound %d)", s, n, definite, syncEvery)
		}
		// Reference: a never-crashed engine fed the shard's durable prefix.
		ref := newRefEngine(t, tr, ds)
		evs := make([]tgraph.Event, 0, n)
		feats := make([]float64, 0, n*ds.Spec.EdgeDim)
		for _, i := range admitted[:n] {
			evs = append(evs, ds.Graph.Events[i])
			feats = append(feats, ds.EdgeFeat.Row(i)...)
		}
		if err := ref.Bootstrap(evs, tensor.FromSlice(len(evs), ds.Spec.EdgeDim, feats)); err != nil {
			t.Fatal(err)
		}
		probes := evs
		if len(probes) > 8 {
			probes = probes[len(probes)-8:]
		}
		assertEngineEquivalent(t, shard, ref, probes)
	}
	// The fleet-level dedup counters were recomputed from the recovered
	// shards under the ownership rule.
	wantDistinct := 0
	for s := 0; s < K; s++ {
		for _, i := range perShard[s][:rec.Shard(s).NumEvents()] {
			if fl.Owner(ds.Graph.Events[i].Dst) == s {
				wantDistinct++
			}
		}
	}
	if rec.NumEvents() != wantDistinct {
		t.Fatalf("recovered distinct count %d, want %d", rec.NumEvents(), wantDistinct)
	}
}

// TestFleetRecoverLevelsWeights: a fleet that checkpointed a published weight
// version must serve it again after recovery — on every shard and on the
// router's cross-shard scoring path.
func TestFleetRecoverLevelsWeights(t *testing.T) {
	const K = 2
	ds := datasets.Wikipedia(0.02, 5)
	tr := newMixerTrainer(t, ds)
	base := t.TempDir()
	mk := func() *Fleet {
		return newTestFleet(t, tr, ds, K, func(fc *FleetConfig) {
			fc.Durability = Durability{Dir: base, SyncEvery: 4}
		})
	}
	fl := mk()
	half := len(ds.Graph.Events) / 2
	if err := fl.Bootstrap(ds.Graph.Events[:half], ds.EdgeFeat.SliceRows(half)); err != nil {
		t.Fatal(err)
	}
	if err := fl.PublishWeights(perturbed(fl.Shard(0), 2, 1.02)); err != nil {
		t.Fatal(err)
	}
	var crossEv *tgraph.Event
	for i := range ds.Graph.Events[:half] {
		ev := &ds.Graph.Events[i]
		if fl.Owner(ev.Src) != fl.Owner(ev.Dst) {
			crossEv = ev
			break
		}
	}
	if crossEv == nil {
		t.Fatal("no cross-shard pair in the prefix")
	}
	wm, _ := fl.Watermark()
	want, err := fl.PredictLink(crossEv.Src, crossEv.Dst, wm+1)
	if err != nil {
		t.Fatal(err)
	}
	if want.Weights != 2 {
		t.Fatalf("pre-crash predict at weight v%d, want 2", want.Weights)
	}
	fl.Close()

	rec := mk()
	rep, err := rec.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rep.WeightVersion != 2 {
		t.Fatalf("recovered weight version %d, want 2", rep.WeightVersion)
	}
	got, err := rec.PredictLink(crossEv.Src, crossEv.Dst, wm+1)
	if err != nil {
		t.Fatal(err)
	}
	if got.Weights != 2 {
		t.Fatalf("post-recovery predict at weight v%d, want 2", got.Weights)
	}
	if got.Score != want.Score {
		t.Fatalf("post-recovery cross-shard score %v, want %v", got.Score, want.Score)
	}
}

// TestFleetIngestStaleAcrossTee: a teed event must be atomic — if it is stale
// for either target shard it lands on neither, and the error names the shard.
func TestFleetIngestStaleAcrossTee(t *testing.T) {
	ds := datasets.Wikipedia(0.02, 5)
	tr := newMixerTrainer(t, ds)
	fl := newTestFleet(t, tr, ds, 4, nil)
	if err := fl.Bootstrap(ds.Graph.Events, ds.EdgeFeat); err != nil {
		t.Fatal(err)
	}
	var crossEv *tgraph.Event
	for i := range ds.Graph.Events {
		ev := &ds.Graph.Events[i]
		if fl.Owner(ev.Src) != fl.Owner(ev.Dst) {
			crossEv = ev
			break
		}
	}
	if crossEv == nil {
		t.Fatal("no cross-shard pair")
	}
	wm, _ := fl.Watermark()
	before := fl.Stats()
	err := fl.Ingest(crossEv.Src, crossEv.Dst, wm-1, nil)
	if !errors.Is(err, ErrStaleEvent) {
		t.Fatalf("want ErrStaleEvent, got %v", err)
	}
	var se *ShardError
	if !errors.As(err, &se) {
		t.Fatalf("stale rejection not attributed to a shard: %v", err)
	}
	after := fl.Stats()
	if after.Events != before.Events || after.Teed != before.Teed {
		t.Fatal("a rejected tee moved the dedup counters")
	}
	total := 0
	for s := 0; s < fl.NumShards(); s++ {
		total += fl.Shard(s).NumEvents()
	}
	if want := len(ds.Graph.Events) + int(before.Teed); total != want {
		t.Fatalf("a rejected tee changed physical shard event counts: %d, want %d", total, want)
	}
}

// TestFleetNonFiniteQueryDoesNotPoisonCache is the cache-poisoning regression
// through the fleet: a cross-shard predict at t=+Inf scatters one Embed to
// each owner, and neither may leave a NaN entry for the next finite predict.
func TestFleetNonFiniteQueryDoesNotPoisonCache(t *testing.T) {
	ds := datasets.Wikipedia(0.02, 37)
	tr := newMixerTrainer(t, ds)
	fl := newTestFleet(t, tr, ds, 2, func(fc *FleetConfig) { fc.CacheSize = 32 })
	if err := fl.Bootstrap(ds.Graph.Events, ds.EdgeFeat); err != nil {
		t.Fatal(err)
	}
	src, dst := int32(0), int32(1)
	for fl.Owner(dst) == fl.Owner(src) {
		dst++
	}
	if _, err := fl.PredictLink(src, dst, math.Inf(1)); err == nil || statusFor(err) != http.StatusBadRequest {
		t.Fatalf("cross-shard predict at t=+Inf: want a 400-class error, got %v", err)
	}
	wm, _ := fl.Watermark()
	res, err := fl.PredictLink(src, dst, wm+1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cached || math.IsNaN(res.Score) || math.IsInf(res.Score, 0) {
		t.Fatalf("finite predict after a +Inf one: score %v cached %v", res.Score, res.Cached)
	}
}
