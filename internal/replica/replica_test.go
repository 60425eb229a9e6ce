package replica

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"taser/internal/datasets"
	"taser/internal/models"
	"taser/internal/sampler"
	"taser/internal/serve"
	"taser/internal/tgraph"
	"taser/internal/train"
	"taser/internal/wal"
)

// testNode is one replica: an engine with its own durable directory plus the
// trainer it was pretrained by (the weight source for publications). Every
// node built from the same dataset starts from bitwise-identical pretrained
// weights (train.New is deterministic in (config, dataset)), which is half of
// the bitwise-equivalence property; the other half is the shipped stream.
type testNode struct {
	e  *serve.Engine
	tr *train.Trainer
}

func newTestNode(t testing.TB, ds *datasets.Dataset, syncEvery int) testNode {
	t.Helper()
	tr, err := train.New(train.Config{
		Model: train.ModelTGAT, Finder: train.FinderGPU, FinderPolicy: "recent",
		Hidden: 12, TimeDim: 6, BatchSize: 32, Seed: 11,
	}, ds)
	if err != nil {
		t.Fatal(err)
	}
	e, err := serve.New(serve.Config{
		Model: tr.Model, Pred: tr.Pred,
		NumNodes: ds.Spec.NumNodes, NodeFeat: ds.NodeFeat, EdgeDim: ds.Spec.EdgeDim,
		Budget: tr.Cfg.N, Policy: sampler.MostRecent,
		MaxBatch: 8, MaxWait: time.Millisecond, SnapshotEvery: 64, Seed: 3,
		Durability: serve.Durability{Dir: t.TempDir(), SyncEvery: syncEvery, SegmentBytes: 4096},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return testNode{e: e, tr: tr}
}

// feed ingests events[lo:hi] with the dataset's edge-feature rows.
func feed(t testing.TB, n testNode, ds *datasets.Dataset, lo, hi int) {
	t.Helper()
	for i := lo; i < hi; i++ {
		ev := ds.Graph.Events[i]
		var feat []float64
		if ds.Spec.EdgeDim > 0 {
			feat = ds.EdgeFeat.Row(i)
		}
		if err := n.e.Ingest(ev.Src, ev.Dst, ev.Time, feat); err != nil {
			t.Fatalf("ingest event %d: %v", i, err)
		}
	}
}

// assertEquivalent is the replication analogue of the crash-equivalence
// check: at the compared point the follower must agree with the leader
// bitwise — watermark, event count, adjacency, edge-feature bytes, and the
// scores both serve.
func assertEquivalent(t *testing.T, follower, leader *serve.Engine, probes []tgraph.Event) {
	t.Helper()
	fWM, fOK := follower.Watermark()
	lWM, lOK := leader.Watermark()
	if fWM != lWM || fOK != lOK {
		t.Fatalf("watermark %v (ok=%v), want %v (ok=%v)", fWM, fOK, lWM, lOK)
	}
	if follower.NumEvents() != leader.NumEvents() {
		t.Fatalf("follower has %d events, leader %d", follower.NumEvents(), leader.NumEvents())
	}
	sF, sL := follower.PublishSnapshot(), leader.PublishSnapshot()
	if d := tgraph.AdjacencyDiff(sF.TCSR, sL.TCSR); d != "" {
		t.Fatalf("adjacency diverged: %s", d)
	}
	if len(sF.EdgeFeat.Data) != len(sL.EdgeFeat.Data) {
		t.Fatalf("edge features %d floats, want %d", len(sF.EdgeFeat.Data), len(sL.EdgeFeat.Data))
	}
	for i, v := range sL.EdgeFeat.Data {
		if sF.EdgeFeat.Data[i] != v {
			t.Fatalf("edge feature %d: %v != %v", i, sF.EdgeFeat.Data[i], v)
		}
	}
	qt := lWM + 1
	for _, ev := range probes {
		got, err := follower.PredictLink(ev.Src, ev.Dst, qt)
		if err != nil {
			t.Fatal(err)
		}
		want, err := leader.PredictLink(ev.Src, ev.Dst, qt)
		if err != nil {
			t.Fatal(err)
		}
		if got.Score != want.Score {
			t.Fatalf("probe (%d→%d): follower score %v, leader %v (weights %d vs %d)",
				ev.Src, ev.Dst, got.Score, want.Score, got.Weights, want.Weights)
		}
	}
}

// waitCaughtUp polls until the follower has applied the leader's synced
// sequence (forced current by a leader checkpoint first) and has published
// the weight version the leader serves — the follower fetches weights after
// it has applied a poll's records, so the two complete separately.
func waitCaughtUp(t *testing.T, f *Follower, leader *serve.Engine) {
	t.Helper()
	if err := leader.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	synced := leader.Stats().WALSynced
	published := func() uint64 {
		if w := f.cfg.Engine.PublishedWeights(); w != nil {
			return w.Version
		}
		return 1
	}
	deadline := time.Now().Add(10 * time.Second)
	for f.Status().Applied < synced || published() < leader.WeightVersion() {
		if time.Now().After(deadline) {
			st := f.Status()
			t.Fatalf("follower stuck at %d/%d, weights v%d/v%d (state %v, err %v)",
				st.Applied, synced, published(), leader.WeightVersion(), st.State, st.Err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func waitState(t *testing.T, f *Follower, want State) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for f.Status().State != want {
		if time.Now().After(deadline) {
			t.Fatalf("follower state %v, want %v", f.Status().State, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func startLeaderServer(t *testing.T, e *serve.Engine) *httptest.Server {
	t.Helper()
	l, err := NewLeader(e)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(l.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func perturbed(n testNode, version uint64, scale float64) *models.WeightSet {
	w := models.CaptureWeights(version, n.tr.Model, n.tr.Pred)
	for _, m := range w.Params {
		m.ScaleInPlace(scale)
	}
	return w
}

// TestFollowerConvergesBitwise is the tentpole property: a follower started
// mid-stream — over a checkpointed prefix plus live tailing, with a weight
// publication racing the stream — converges to the leader's exact state.
func TestFollowerConvergesBitwise(t *testing.T) {
	ds := datasets.Wikipedia(0.02, 7)
	n := len(ds.Graph.Events)
	leader := newTestNode(t, ds, 8)
	follower := newTestNode(t, ds, 8)

	// Half the stream lands before the follower exists, sealed in a shipped
	// checkpoint; the rest races the tail loop.
	feed(t, leader, ds, 0, n/2)
	if err := leader.e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ts := startLeaderServer(t, leader.e)

	f, err := StartFollower(FollowerConfig{
		Engine: follower.e, Leader: ts.URL, PollInterval: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if follower.e.Writable() {
		t.Fatal("follower engine still writable after StartFollower")
	}
	if err := follower.e.Ingest(1, 2, 1e12, nil); !errors.Is(err, serve.ErrReadOnly) {
		t.Fatalf("follower ingest: got %v, want ErrReadOnly", err)
	}

	feed(t, leader, ds, n/2, 3*n/4)
	// Publish new weights mid-stream and force the leader to swap them in
	// (the applied version — what the wire header advertises — advances at
	// the next micro-batch flush).
	if err := leader.e.PublishWeights(perturbed(leader, 2, 1.25)); err != nil {
		t.Fatal(err)
	}
	if _, err := leader.e.PredictLink(ds.Graph.Events[0].Src, ds.Graph.Events[0].Dst, 1e15); err != nil {
		t.Fatal(err)
	}
	feed(t, leader, ds, 3*n/4, n)

	waitCaughtUp(t, f, leader.e)
	assertEquivalent(t, follower.e, leader.e, ds.Graph.Events[:8])
	if got := follower.e.WeightVersion(); got != 2 {
		t.Fatalf("follower weight version %d, want 2 (replicated publication)", got)
	}
	st := f.Status()
	if st.State != StateTailing || st.Lag != 0 {
		t.Fatalf("status = %+v, want tailing with zero lag", st)
	}
	// Healthy also wants a poll within the last few intervals; on a loaded
	// host one poll can run late, so wait for the next one instead of
	// demanding it of this instant.
	deadline := time.Now().Add(2 * time.Second)
	for err := f.Healthy(); err != nil; err = f.Healthy() {
		if time.Now().After(deadline) {
			t.Fatalf("Healthy() = %v, want nil", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// faultRT injects transport faults into the follower's /wal polls: torn
// chunks (response truncated mid-record), corrupted chunks (a payload byte
// flipped), and duplicated chunks (the from cursor rewound so records the
// follower already applied arrive again). Only the first `budget` matching
// exchanges are mangled, so every test eventually converges.
type faultRT struct {
	base    http.RoundTripper
	mode    string // "torn" | "corrupt" | "dup"
	recSize int    // exact frame size of one record (fixed EdgeDim)
	budget  int    // exchanges left to mangle
	hits    int    // exchanges actually mangled
}

func (rt *faultRT) RoundTrip(req *http.Request) (*http.Response, error) {
	mangle := rt.budget > 0 && req.URL.Path == "/v1/repl/wal"
	if mangle && rt.mode == "dup" {
		q := req.URL.Query()
		from, _ := strconv.ParseUint(q.Get("from"), 10, 64)
		if from >= 3 {
			q.Set("from", strconv.FormatUint(from-3, 10))
			req.URL.RawQuery = q.Encode()
			rt.budget--
			rt.hits++
		}
		return rt.base.RoundTrip(req)
	}
	resp, err := rt.base.RoundTrip(req)
	if err != nil || !mangle || resp.StatusCode != http.StatusOK {
		return resp, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if nrec := len(body) / rt.recSize; nrec > 0 {
		switch rt.mode {
		case "torn":
			// Cut 5 bytes into the last record: the intact prefix must still
			// apply, the partial record must read as torn, not as corrupt.
			body = body[:(nrec-1)*rt.recSize+5]
			rt.budget--
			rt.hits++
		case "corrupt":
			// Flip a payload byte of the first record: the checksum must
			// reject it and the follower must re-poll, not apply garbage.
			body[rt.recSize/2] ^= 0xFF
			rt.budget--
			rt.hits++
		}
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	resp.ContentLength = int64(len(body))
	return resp, nil
}

// TestFollowerSurvivesStreamFaults: torn, corrupted and duplicated stream
// chunks cost retries, never consistency — the follower still converges to
// the leader's exact bytes.
func TestFollowerSurvivesStreamFaults(t *testing.T) {
	ds := datasets.Wikipedia(0.02, 7)
	n := len(ds.Graph.Events)
	recSize := 4 + 4 + 4 + 8 + 4 + 8*ds.Spec.EdgeDim + 4 // len|src|dst|t|featLen|feat|crc

	for _, mode := range []string{"torn", "corrupt", "dup"} {
		t.Run(mode, func(t *testing.T) {
			leader := newTestNode(t, ds, 8)
			follower := newTestNode(t, ds, 8)
			feed(t, leader, ds, 0, n)
			ts := startLeaderServer(t, leader.e)

			rt := &faultRT{base: http.DefaultTransport, mode: mode, recSize: recSize, budget: 4}
			f, err := StartFollower(FollowerConfig{
				Engine: follower.e, Leader: ts.URL,
				Client:       &http.Client{Transport: rt, Timeout: 30 * time.Second},
				PollInterval: 2 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()

			waitCaughtUp(t, f, leader.e)
			assertEquivalent(t, follower.e, leader.e, ds.Graph.Events[:8])
			// A dup rewind needs a poll from >= 3, so the first one follows
			// catch-up: wait for the fault to be counted rather than for the
			// probes above to have taken long enough, and stop the loop
			// before reading the transport's own counters.
			counted := func() uint64 {
				st := f.Status()
				if mode == "dup" {
					return st.DupRecords
				}
				return st.FaultPolls
			}
			deadline := time.Now().Add(10 * time.Second)
			for counted() == 0 && time.Now().Before(deadline) {
				time.Sleep(2 * time.Millisecond)
			}
			f.Close()
			if rt.hits == 0 {
				t.Fatalf("%s fault was never injected", mode)
			}
			if counted() == 0 {
				t.Fatalf("%s faults injected (%d) but none counted: %+v", mode, rt.hits, f.Status())
			}
		})
	}
}

// killOnceRT fails the first matching exchange outright — the mid-catch-up
// kill: the follower loses its leader connection between /status and the
// checkpoint shipment and must retry from scratch.
type killOnceRT struct {
	base  http.RoundTripper
	path  string
	kills int
}

func (rt *killOnceRT) RoundTrip(req *http.Request) (*http.Response, error) {
	if rt.kills > 0 && req.URL.Path == rt.path {
		rt.kills--
		return nil, errors.New("injected: connection killed mid-catch-up")
	}
	return rt.base.RoundTrip(req)
}

// TestCheckpointCatchupSurvivesKill: the bulk catch-up path retries through
// a killed checkpoint shipment and still lands on the leader's exact state.
func TestCheckpointCatchupSurvivesKill(t *testing.T) {
	ds := datasets.Wikipedia(0.02, 7)
	n := len(ds.Graph.Events)
	leader := newTestNode(t, ds, 8)
	follower := newTestNode(t, ds, 8)
	feed(t, leader, ds, 0, n)
	if err := leader.e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ts := startLeaderServer(t, leader.e)

	rt := &killOnceRT{base: http.DefaultTransport, path: "/v1/repl/checkpoint", kills: 1}
	f, err := StartFollower(FollowerConfig{
		Engine: follower.e, Leader: ts.URL,
		Client:       &http.Client{Transport: rt, Timeout: 30 * time.Second},
		PollInterval: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if rt.kills != 0 {
		t.Fatal("kill was never injected")
	}
	// The checkpoint covered the whole stream, so catch-up alone must have
	// applied it in bulk (not record-by-record polls).
	if got := follower.e.NumEvents(); got != n {
		t.Fatalf("after catch-up follower has %d events, want %d from the shipped checkpoint", got, n)
	}
	waitCaughtUp(t, f, leader.e)
	assertEquivalent(t, follower.e, leader.e, ds.Graph.Events[:8])
}

// TestPromotionHandoff is the leader hand-off drill: kill the leader,
// promote the follower, verify it serves writes on the replicated prefix;
// the dead leader's over-long local stream is refused (ErrDiverged) and a
// fresh replacement converges against the new leader.
func TestPromotionHandoff(t *testing.T) {
	ds := datasets.Wikipedia(0.02, 7)
	n := len(ds.Graph.Events)
	leader := newTestNode(t, ds, 8)
	follower := newTestNode(t, ds, 8)

	const tail = 5 // unsynced events the dying leader keeps to itself (< SyncEvery)
	feed(t, leader, ds, 0, n/2)
	ts := startLeaderServer(t, leader.e)
	f, err := StartFollower(FollowerConfig{
		Engine: follower.e, Leader: ts.URL, PollInterval: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	waitCaughtUp(t, f, leader.e)
	syncedAtKill := leader.e.Stats().WALSynced

	// The leader admits a few more events that never reach a group commit —
	// the tail every hand-off is allowed to lose — then dies. Promote the
	// follower: it seals its applied prefix and starts taking writes exactly
	// where the synced stream ended.
	feed(t, leader, ds, int(syncedAtKill), int(syncedAtKill)+tail)
	ts.Close()
	f.Promote()
	if st := f.Status(); st.State != StatePromoted {
		t.Fatalf("state %v after Promote, want promoted", st.State)
	}
	if !follower.e.Writable() {
		t.Fatal("promoted follower is not writable")
	}
	if err := f.Healthy(); err != nil {
		t.Fatalf("promoted Healthy() = %v, want nil", err)
	}
	if got := uint64(follower.e.NumEvents()); got != syncedAtKill {
		t.Fatalf("promoted with %d events, want the leader's synced %d", got, syncedAtKill)
	}
	if lost := leader.e.NumEvents() - follower.e.NumEvents(); lost >= 8 {
		t.Fatalf("hand-off lost %d events; bound is the leader's SyncEvery=8", lost)
	}

	// The dead leader's engine carries its unsynced tail — a history the new
	// leader never saw. Re-joining with it must be refused, not merged.
	ts2 := startLeaderServer(t, follower.e)
	_, err = StartFollower(FollowerConfig{Engine: leader.e, Leader: ts2.URL})
	if !errors.Is(err, ErrDiverged) {
		t.Fatalf("stale ex-leader rejoin: got %v, want ErrDiverged", err)
	}

	// Writes land on the new leader; a replacement follower starts over a
	// fresh durable dir and converges.
	feed(t, follower, ds, int(syncedAtKill), 3*n/4)
	f.Promote() // idempotent
	rejoin := newTestNode(t, ds, 8)
	f2, err := StartFollower(FollowerConfig{
		Engine: rejoin.e, Leader: ts2.URL, PollInterval: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	feed(t, follower, ds, 3*n/4, n)
	waitCaughtUp(t, f2, follower.e)
	assertEquivalent(t, rejoin.e, follower.e, ds.Graph.Events[:8])
}

// TestAutoFailover: with FailoverAfter armed, losing the leader promotes
// the follower without an operator.
func TestAutoFailover(t *testing.T) {
	ds := datasets.Wikipedia(0.02, 7)
	leader := newTestNode(t, ds, 8)
	follower := newTestNode(t, ds, 8)
	feed(t, leader, ds, 0, 64)
	ts := startLeaderServer(t, leader.e)

	f, err := StartFollower(FollowerConfig{
		Engine: follower.e, Leader: ts.URL,
		PollInterval: 2 * time.Millisecond, FailoverAfter: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	waitCaughtUp(t, f, leader.e)

	ts.Close()
	waitState(t, f, StatePromoted)
	if !follower.e.Writable() {
		t.Fatal("auto-promoted follower is not writable")
	}
	ev := ds.Graph.Events[64]
	if err := follower.e.Ingest(ev.Src, ev.Dst, ev.Time+1, nil); err != nil {
		t.Fatalf("ingest on auto-promoted follower: %v", err)
	}
}

// TestRejoinRefusedAfterNewLeaderOutgrows is the divergence case length
// checks cannot see: the dead leader keeps an unsynced tail the follower
// never received, the promoted leader then takes enough conflicting writes
// to outgrow it, and the stale store tries to re-join with applied ≤ synced.
// The join-point byte verification must refuse it — without it the ex-leader
// would tail from its applied sequence on top of a conflicting prefix and
// serve a permanently divergent store.
func TestRejoinRefusedAfterNewLeaderOutgrows(t *testing.T) {
	ds := datasets.Wikipedia(0.02, 7)
	n := len(ds.Graph.Events)
	leader := newTestNode(t, ds, 8)
	follower := newTestNode(t, ds, 8)

	feed(t, leader, ds, 0, n/2)
	ts := startLeaderServer(t, leader.e)
	f, err := StartFollower(FollowerConfig{
		Engine: follower.e, Leader: ts.URL, PollInterval: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	waitCaughtUp(t, f, leader.e)
	syncedAtKill := leader.e.Stats().WALSynced

	// waitCaughtUp checkpointed (and therefore synced) the leader's log, so
	// these events stay pending in the group-commit buffer (tail < SyncEvery):
	// the follower can never have seen them.
	const tail = 5
	feed(t, leader, ds, int(syncedAtKill), int(syncedAtKill)+tail)
	ts.Close()
	f.Promote()
	if fn, ln := follower.e.NumEvents(), leader.e.NumEvents(); fn+tail != ln {
		t.Fatalf("setup: follower promoted with %d events, ex-leader holds %d; want a %d-event unshipped tail", fn, ln, tail)
	}

	// The new leader takes writes that conflict with the dead leader's tail
	// and outgrows it, so the length check alone would re-admit the stale
	// store.
	wm, _ := follower.e.Watermark()
	feat := make([]float64, ds.Spec.EdgeDim)
	for i := 0; i < 2*tail; i++ {
		for j := range feat {
			feat[j] = float64(i) + 0.25
		}
		if err := follower.e.Ingest(3, 4, wm+float64(i+1), feat); err != nil {
			t.Fatal(err)
		}
	}
	if err := follower.e.Checkpoint(); err != nil { // sync the new writes
		t.Fatal(err)
	}
	ts2 := startLeaderServer(t, follower.e)
	if synced, ex := follower.e.Stats().WALSynced, uint64(leader.e.NumEvents()); synced < ex {
		t.Fatalf("setup: new leader synced %d has not outgrown the ex-leader's %d events", synced, ex)
	}

	_, err = StartFollower(FollowerConfig{Engine: leader.e, Leader: ts2.URL})
	if !errors.Is(err, ErrDiverged) {
		t.Fatalf("stale ex-leader rejoin after outgrowth: got %v, want ErrDiverged", err)
	}
	if !leader.e.Writable() {
		t.Fatal("refused rejoin should restore the engine's prior (writable) state")
	}
}

// TestFollowerRestartResumesCleanly: a follower stopped and restarted over
// the same engine re-joins with applied > 0 — the join verification must
// pass on the genuinely shared prefix and tailing must resume where it left
// off instead of re-shipping the stream.
func TestFollowerRestartResumesCleanly(t *testing.T) {
	ds := datasets.Wikipedia(0.02, 7)
	n := len(ds.Graph.Events)
	leader := newTestNode(t, ds, 8)
	follower := newTestNode(t, ds, 8)

	feed(t, leader, ds, 0, n/2)
	ts := startLeaderServer(t, leader.e)
	f, err := StartFollower(FollowerConfig{
		Engine: follower.e, Leader: ts.URL, PollInterval: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, f, leader.e)
	f.Close()
	resumedAt := uint64(follower.e.NumEvents())
	if resumedAt == 0 {
		t.Fatal("setup: follower stopped with an empty stream")
	}

	feed(t, leader, ds, int(resumedAt), n)
	f2, err := StartFollower(FollowerConfig{
		Engine: follower.e, Leader: ts.URL, PollInterval: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("restart over a valid prefix: %v", err)
	}
	defer f2.Close()
	waitCaughtUp(t, f2, leader.e)
	assertEquivalent(t, follower.e, leader.e, ds.Graph.Events[:8])
}

// TestEdgeDimMismatchFailsFast: a follower engine configured with a
// different edge-feature width can never apply a single record; the status
// handshake must refuse it at StartFollower instead of letting the loop
// retry the first record forever.
func TestEdgeDimMismatchFailsFast(t *testing.T) {
	ds := datasets.Wikipedia(0.02, 7)
	ds16 := datasets.Generate(datasets.Spec{
		Name: "wikipedia-16", NumNodes: 900, NumSrc: 720, NumEvents: 400,
		NodeDim: 0, EdgeDim: 16,
		NoiseRate: 0.20, DriftRate: 2.0, RepeatRate: 0.5, Skew: 1.1, Seed: 7,
	})
	leader := newTestNode(t, ds, 8)
	follower := newTestNode(t, ds16, 8)
	feed(t, leader, ds, 0, 64)
	ts := startLeaderServer(t, leader.e)

	_, err := StartFollower(FollowerConfig{Engine: follower.e, Leader: ts.URL})
	if !errors.Is(err, ErrIncompatible) {
		t.Fatalf("edge-dim mismatch: got %v, want ErrIncompatible", err)
	}
	if !follower.e.Writable() {
		t.Fatal("refused follower should get its writable state back")
	}
}

// TestCatchupFailureRestoresWritable: a failed StartFollower must hand the
// engine back with the caller's writability policy intact — not force it
// writable.
func TestCatchupFailureRestoresWritable(t *testing.T) {
	ds := datasets.Wikipedia(0.02, 7)
	node := newTestNode(t, ds, 8)
	cfg := FollowerConfig{
		Engine: node.e, Leader: "http://127.0.0.1:1",
		Client:         &http.Client{Timeout: 100 * time.Millisecond},
		PollInterval:   time.Millisecond,
		CatchupRetries: 1,
	}

	if _, err := StartFollower(cfg); err == nil {
		t.Fatal("StartFollower reached an unreachable leader")
	}
	if !node.e.Writable() {
		t.Fatal("failed catch-up flipped a writable engine read-only")
	}

	node.e.SetWritable(false)
	if _, err := StartFollower(cfg); err == nil {
		t.Fatal("StartFollower reached an unreachable leader")
	}
	if node.e.Writable() {
		t.Fatal("failed catch-up flipped a deliberately read-only engine writable")
	}
}

// poisonRT, once armed, answers /wal polls itself with a well-framed record
// the engine can never admit (a timestamp far behind the watermark): every
// checksum passes, every apply is rejected — the persistent-rejection case.
type poisonRT struct {
	base    http.RoundTripper
	edgeDim int
	armed   atomic.Bool
}

func (rt *poisonRT) RoundTrip(req *http.Request) (*http.Response, error) {
	if !rt.armed.Load() || req.URL.Path != "/v1/repl/wal" {
		return rt.base.RoundTrip(req)
	}
	from, _ := strconv.ParseUint(req.URL.Query().Get("from"), 10, 64)
	body := wal.AppendRecord(nil, 7, 8, -1e18, make([]float64, rt.edgeDim))
	h := http.Header{}
	h.Set(hdrFrom, strconv.FormatUint(from, 10))
	h.Set(hdrSeq, strconv.FormatUint(from+1, 10))
	return &http.Response{
		Status: "200 OK", StatusCode: http.StatusOK,
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: h, Body: io.NopCloser(bytes.NewReader(body)),
		ContentLength: int64(len(body)), Request: req,
	}, nil
}

// TestPersistentApplyRejectionFails: a record the engine rejects poll after
// poll must fail the follower (ErrStalled, StateFailed, unhealthy) instead
// of being retried at the same sequence forever while lag grows.
func TestPersistentApplyRejectionFails(t *testing.T) {
	ds := datasets.Wikipedia(0.02, 7)
	leader := newTestNode(t, ds, 8)
	follower := newTestNode(t, ds, 8)
	feed(t, leader, ds, 0, 64)
	ts := startLeaderServer(t, leader.e)

	rt := &poisonRT{base: http.DefaultTransport, edgeDim: ds.Spec.EdgeDim}
	f, err := StartFollower(FollowerConfig{
		Engine: follower.e, Leader: ts.URL,
		Client:       &http.Client{Transport: rt, Timeout: 30 * time.Second},
		PollInterval: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	waitCaughtUp(t, f, leader.e)

	rt.armed.Store(true)
	waitState(t, f, StateFailed)
	st := f.Status()
	if !errors.Is(st.Err, ErrStalled) {
		t.Fatalf("failed follower error = %v, want ErrStalled", st.Err)
	}
	if err := f.Healthy(); err == nil {
		t.Fatal("stalled follower reports healthy")
	}
}

// TestLeaderRequiresDurableEngine: an engine without a WAL has no log to
// ship.
func TestLeaderRequiresDurableEngine(t *testing.T) {
	ds := datasets.Wikipedia(0.02, 7)
	tr, err := train.New(train.Config{
		Model: train.ModelTGAT, Finder: train.FinderGPU, FinderPolicy: "recent",
		Hidden: 12, TimeDim: 6, BatchSize: 32, Seed: 11,
	}, ds)
	if err != nil {
		t.Fatal(err)
	}
	e, err := serve.New(serve.Config{
		Model: tr.Model, Pred: tr.Pred,
		NumNodes: ds.Spec.NumNodes, NodeFeat: ds.NodeFeat, EdgeDim: ds.Spec.EdgeDim,
		Budget: tr.Cfg.N, Policy: sampler.MostRecent,
		MaxBatch: 8, MaxWait: time.Millisecond, SnapshotEvery: 64, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, err := NewLeader(e); err == nil {
		t.Fatal("NewLeader accepted a non-durable engine")
	}
}
