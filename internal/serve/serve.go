// Package serve is TASER's online inference subsystem: it serves link
// prediction and node embeddings while the temporal graph is still growing —
// the deployment shape of the paper's motivating applications (fraud
// detection, recommendation), where events stream in continuously and
// predictions cannot wait for a retraining cycle.
//
// Three mechanisms compose:
//
//   - Concurrent ingest (this file). A guarded tgraph.Builder accepts edge
//     events from any number of writers and periodically publishes immutable
//     (Graph, T-CSR, edge-feature) snapshots through an atomic pointer swap.
//     Readers pin a snapshot for the duration of a request; ingest never
//     blocks inference and inference never blocks ingest — the epoch-style
//     separation of a production feature store, with Go's GC standing in for
//     epoch reclamation.
//
//   - Micro-batched serving (batcher.go). Concurrent requests are gathered
//     into minibatches (whoever is submitting while the previous flush runs,
//     up to MaxBatch roots; nothing waits out a timer) and run through the
//     pooled, allocation-free build path the training loop uses
//     (train.InferenceBuilder over internal/train/pool.go) and one model
//     forward — amortizing neighbor finding and feature slicing across
//     requests exactly as training amortizes them across a batch.
//
//   - An embedding cache (embcache.go). Node embeddings are memoized keyed by
//     (node, last-event-time in the pinned snapshot), layered on
//     internal/cache's LRU; ingesting an event that touches a node changes
//     its key, so hot nodes are served from cache until the stream
//     invalidates them. See DESIGN.md for the staleness bound.
package serve

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"taser/internal/models"
	"taser/internal/overload"
	"taser/internal/sampler"
	"taser/internal/tensor"
	"taser/internal/tgraph"
	"taser/internal/train"
	"taser/internal/wal"
)

// ErrClosed is returned by serving calls after Close.
var ErrClosed = errors.New("serve: engine closed")

// ErrStaleEvent wraps ingest rejections of events behind the watermark.
var ErrStaleEvent = errors.New("serve: event behind ingest watermark")

// ErrReadOnly wraps write rejections of a read-only engine — a replica
// follower, whose stream is owned by the replication loop (internal/replica)
// tailing the leader's WAL. Clients should redirect the write to the leader;
// the HTTP layer maps this to 421 Misdirected Request. Promotion
// (SetWritable(true)) lifts it.
var ErrReadOnly = errors.New("serve: engine is read-only (replica follower)")

// Config wires a trained model into an online engine. Model and Pred are
// typically taken from an offline train.Trainer after pretraining.
//
// Ownership: once any weight set is published (PublishWeights, or an
// attached internal/finetune Tuner), the engine's scheduler writes into
// Model/Pred parameters when it applies a swap — so an engine that will
// receive weight publications must own its Model/Pred exclusively. Hand it
// clones (models.TGNN.Clone, EdgePredictor.Clone) when the originals are
// shared with a trainer, another engine, or a fine-tuner.
type Config struct {
	Model models.TGNN
	Pred  *models.EdgePredictor

	NumNodes int
	NodeFeat *tensor.Matrix // static node features (nil when the graph has none)
	EdgeDim  int            // per-event edge-feature width (0 when absent)

	Budget int // supporting neighbors per hop (default 10)
	// Policy is the static sampling policy and must be sampler.MostRecent,
	// the deterministic one: the embedding cache, the fleet anchors and
	// replication all assume a build is a function of (snapshot, root). There
	// is no default — the zero value is sampler.Uniform, which normalize
	// rejects.
	Policy sampler.Policy

	MaxBatch int // max roots gathered into one micro-batch (default 32)
	// MaxWait is an upper bound on one gather (default 2ms), not a wait: a
	// gather ends when nobody else is about to submit or at MaxBatch (loop).
	MaxWait       time.Duration
	CacheSize     int // embedding-cache capacity in nodes (0 disables)
	SnapshotEvery int // publish a snapshot every k ingested events (default 256)

	// Durability enables the write-ahead log and checkpointing when its Dir
	// is set (durability.go, DESIGN.md §9); the zero value serves purely
	// in-memory.
	Durability Durability

	// Overload enables the overload control plane (internal/overload,
	// DESIGN.md §14): TargetP99 attaches an SLO feedback controller to the
	// scheduler's effective MaxBatch, MaxQueue bounds admission with
	// priority lanes (predict over ingest over replication) and typed
	// ErrOverload shedding. The zero value disables it entirely — the engine
	// then runs exactly the static-config path, bit for bit.
	Overload overload.Config

	Seed uint64
}

// latencyWindow is how many recent request latencies an engine (and a fleet's
// router) retains for the P50/P99 stats and the SLO controller's sample.
const latencyWindow = 4096

// Validate reports whether New would accept the config, without building
// anything — cmd/taser-serve calls it as soon as the model exists, so a bad
// serving, overload or durability setting fails before pretraining starts.
func (c Config) Validate() error {
	_, err := c.normalize()
	return err
}

// normalize fills defaults and validates.
func (c Config) normalize() (Config, error) {
	if c.Model == nil {
		return c, fmt.Errorf("serve: Config.Model is required")
	}
	if c.Pred == nil {
		return c, fmt.Errorf("serve: Config.Pred is required")
	}
	if c.NumNodes <= 0 {
		return c, fmt.Errorf("serve: Config.NumNodes must be positive")
	}
	// A negative batch bound flushes every request alone and a negative
	// snapshot cadence republishes per event — never what was meant.
	if c.MaxBatch < 0 || c.MaxWait < 0 || c.SnapshotEvery < 0 {
		return c, fmt.Errorf("serve: Config.MaxBatch, MaxWait and SnapshotEvery must not be negative "+
			"(got %d, %v, %d; 0 selects the default)", c.MaxBatch, c.MaxWait, c.SnapshotEvery)
	}
	if c.Policy != sampler.MostRecent {
		return c, fmt.Errorf("serve: Config.Policy must be sampler.MostRecent, the deterministic policy "+
			"(got %v; the zero value is sampler.Uniform, so the field has to be set)", c.Policy)
	}
	if c.Budget == 0 {
		c.Budget = 10
	}
	if c.MaxBatch == 0 {
		c.MaxBatch = 32
	}
	if c.MaxWait == 0 {
		c.MaxWait = 2 * time.Millisecond
	}
	if c.SnapshotEvery == 0 {
		c.SnapshotEvery = 256
	}
	if c.Durability.Dir != "" && c.Durability.FS == nil {
		c.Durability.FS = wal.OSFS{}
	}
	var err error
	if c.Overload, err = c.Overload.Normalize(c.MaxBatch, c.MaxWait); err != nil {
		return c, fmt.Errorf("serve: %w", err)
	}
	return c, nil
}

// Snapshot is one immutable published view of the stream: a packed graph,
// its adjacency, and the edge features aligned with its event ids. All
// fields are read-only after publication; any number of readers may share
// one.
//
// Publication is incremental: Graph.Events, the TCSR adjacency (a chunked
// tgraph.AppendableTCSR) and EdgeFeat.Data are immutable prefix views into
// the engine's append-only ingest buffers, shared structurally with earlier
// snapshots rather than copied — publishing costs O(delta since the last
// publish), not O(events). Readers cannot tell: the adjacency-access
// contract (tgraph.Adjacency) is exactly the one a from-scratch BuildTCSR
// satisfies, bitwise.
type Snapshot struct {
	Version      uint64
	Graph        *tgraph.Graph
	TCSR         tgraph.Adjacency
	EdgeFeat     *tensor.Matrix
	Watermark    float64 // ingest watermark at publication (meaningful iff HasWatermark)
	HasWatermark bool    // false only for the empty pre-ingest snapshot
}

// NumEvents reports the snapshot's event count.
func (s *Snapshot) NumEvents() int { return s.Graph.NumEvents() }

// LastEventTime returns the timestamp of node v's most recent event in the
// snapshot, and whether v has any events yet — ok false is distinct from a
// real t=0 last event, exactly like the ingest watermark. Together with the
// node id it forms the embedding-cache key: v's temporal neighborhood
// N(v, t) is identical for every query time t ≥ LastEventTime(v) (and empty
// at every t while ok is false), so one cached embedding serves all of them
// (up to time-encoding drift; see DESIGN.md).
func (s *Snapshot) LastEventTime(v int32) (t float64, ok bool) {
	_, ts, _ := s.TCSR.Adj(v)
	if len(ts) == 0 {
		return 0, false
	}
	return ts[len(ts)-1], true
}

// Engine is the online inference engine. All exported methods are safe for
// concurrent use: ingest methods synchronize on an internal writer lock,
// serving methods funnel through the micro-batching scheduler.
type Engine struct {
	cfg Config

	// Ingest side: the guarded builder plus the growable flat edge-feature
	// rows (row i belongs to event i, the order Snapshot preserves).
	// edgeFeat is append-only: published snapshots hold full (len == cap)
	// prefix views of it, so later appends either land beyond every
	// published length or relocate the array — never inside a view.
	ingestMu  sync.Mutex
	gb        *tgraph.Builder
	edgeFeat  []float64
	zeroRow   []float64
	sinceSnap int
	version   uint64
	snap      atomic.Pointer[Snapshot]

	// Serving side (owned by the scheduler goroutine).
	builder        *train.InferenceBuilder
	builderVersion uint64
	cache          *embCache
	fs             flushScratch // per-flush working set, reused across flushes

	// Weight publication (DESIGN.md §8): a fine-tuner stores immutable
	// versioned WeightSets into weights; the scheduler notices the pointer
	// change at the top of a flush and copies the values into the serving
	// model/predictor parameters — which only the scheduler goroutine ever
	// touches — so a whole micro-batch runs under one pinned weight version
	// and publication never blocks serving (nor serving, publication).
	weights       atomic.Pointer[models.WeightSet]
	weightVersion atomic.Uint64 // version currently applied (scheduler writes)
	weightSwaps   atomic.Uint64 // swaps performed
	swapNanos     atomic.Int64  // cumulative time spent copying weights in

	// Durability (durability.go): the WAL shares the ingest lock — appends
	// happen on the ingest path — while checkpoint writes serialize on their
	// own mutex so they never stall ingest for the duration of an fsync.
	wlog         *wal.Log   // nil = durability off (guarded by ingestMu)
	sinceCkpt    int        // events since the last periodic checkpoint (guarded by ingestMu)
	ckptMu       sync.Mutex // serializes checkpoint capture+write
	walFailures  atomic.Uint64
	ckptWrites   atomic.Uint64
	ckptFailures atomic.Uint64
	ckptEvents   atomic.Uint64 // events covered by the newest checkpoint
	ckptUnix     atomic.Int64  // wall time of the newest checkpoint write (UnixNano; 0 = none yet)

	// Replication (internal/replica): a follower engine is read-only — the
	// public write API (Ingest, Bootstrap, PublishSnapshot is still fine)
	// rejects with ErrReadOnly while the replication loop writes through
	// Apply/ApplyPrefix. Promotion flips it back.
	readOnly atomic.Bool

	// Overload control plane (internal/overload, DESIGN.md §14). Both nil
	// when Config.Overload is zero — the anchor guarantee: the disabled
	// engine runs no overload code on any path. gate bounds admission with
	// priority lanes (entered through enter/leave); ctrl retunes the
	// scheduler's effective MaxBatch (read via curMaxBatch) from the latency
	// ring.
	gate *overload.Gate
	ctrl *overload.Controller

	reqs      chan *request
	quit      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once

	requests atomic.Uint64
	batches  atomic.Uint64
	roots    atomic.Uint64
	lat      latencyRing
}

// New builds and starts an engine. The initial published snapshot is the
// empty graph (version 1); Bootstrap or Ingest events to grow it.
func New(cfg Config) (*Engine, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:  cfg,
		gb:   tgraph.NewBuilder(cfg.NumNodes),
		reqs: make(chan *request),
		quit: make(chan struct{}),
	}
	if cfg.EdgeDim > 0 {
		e.zeroRow = make([]float64, cfg.EdgeDim)
	}
	if cfg.Durability.Dir != "" {
		e.wlog, err = wal.Open(wal.Config{
			Dir: cfg.Durability.Dir, SyncEvery: cfg.Durability.SyncEvery,
			SegmentBytes: cfg.Durability.SegmentBytes, FS: cfg.Durability.FS,
		})
		if err != nil {
			return nil, err
		}
	}
	e.publishLocked() // version 1: empty graph, serving works immediately
	snap := e.snap.Load()
	e.builder, err = train.NewInferenceBuilder(train.InferConfig{
		TCSR: snap.TCSR, NodeFeat: cfg.NodeFeat, EdgeFeat: snap.EdgeFeat,
		Layers: cfg.Model.NumLayers(), Budget: cfg.Budget,
		Policy: cfg.Policy, Seed: cfg.Seed,
	})
	if err != nil {
		if e.wlog != nil {
			e.wlog.Close()
		}
		return nil, err
	}
	e.builderVersion = snap.Version
	if cfg.CacheSize > 0 {
		e.cache = newEmbCache(cfg.CacheSize, cfg.Model.HiddenDim())
	}
	e.weightVersion.Store(1) // version 1: the weights the engine was built with
	e.lat.init(latencyWindow)
	if cfg.Overload.AdmissionEnabled() {
		e.gate = overload.NewGate(cfg.Overload)
	}
	if cfg.Overload.ControllerEnabled() {
		e.ctrl, err = overload.NewController(overload.ControllerConfig{
			TargetP99: cfg.Overload.TargetP99,
			BaseBatch: cfg.MaxBatch,
			Sample:    e.lat.sample,
		})
		if err != nil {
			if e.wlog != nil {
				e.wlog.Close()
			}
			return nil, err
		}
		e.wg.Add(1)
		go e.controlLoop()
	}
	e.wg.Add(1)
	go e.loop()
	return e, nil
}

// controlLoop ticks the SLO controller on its configured cadence. It runs
// on its own goroutine so a slow quantile computation can never stall the
// scheduler; the Sample hook is a copy under the latency ring's lock, so it
// never stalls the request path either.
func (e *Engine) controlLoop() {
	defer e.wg.Done()
	t := time.NewTicker(e.cfg.Overload.Interval)
	defer t.Stop()
	for {
		select {
		case <-e.quit:
			return
		case <-t.C:
			e.ctrl.Tick()
		}
	}
}

// curMaxBatch returns the scheduler's effective batch ceiling: the SLO
// controller's when one is attached, the static config otherwise.
func (e *Engine) curMaxBatch() int {
	if e.ctrl != nil {
		return e.ctrl.MaxBatch()
	}
	return e.cfg.MaxBatch
}

// enter is every public call's way past the engine's admission policy: a
// public write (LaneIngest — Ingest, Bootstrap, a fleet's canonical copy) is
// refused on a read-only engine, and with admission control on the call takes
// a gate slot in its lane. A closed gate is the closed engine (the caller
// raced Close); the typed overload rejection passes through for the HTTP 429
// mapping. A nil error must be paired with leave(lane).
func (e *Engine) enter(lane overload.Lane) error {
	if lane == overload.LaneIngest && e.readOnly.Load() {
		return fmt.Errorf("%w: writes must go to the leader", ErrReadOnly)
	}
	if e.gate == nil {
		return nil
	}
	err := e.gate.Enter(lane)
	if errors.Is(err, overload.ErrGateClosed) {
		return ErrClosed
	}
	return err
}

// leave releases the slot enter took.
func (e *Engine) leave(lane overload.Lane) {
	if e.gate != nil {
		e.gate.Leave(lane)
	}
}

// Close shuts the scheduler down after serving every request it has already
// accepted. Serving calls issued after (or racing with) Close return
// ErrClosed. With durability configured, Close then writes a final
// checkpoint and syncs and closes the WAL, so a clean shutdown loses
// nothing and the next Recover needs no replay; failures in that best-effort
// finalization are counted in Stats (the WAL's synced prefix still protects
// the stream). Ingest after Close fails with ErrDurability on a durable
// engine and is silently unprotected on a non-durable one, as before. Safe
// to call multiple times.
//
// With admission control on, the gate closes first: requests still queued
// at the gate get a terminal ErrClosed instead of hanging, while requests
// already admitted keep their scheduler guarantee — accepted means served —
// before the quit channel stops the loop. Shed-burst shutdown therefore
// drains, never wedges (DESIGN.md §14).
func (e *Engine) Close() {
	e.closeOnce.Do(func() {
		if e.gate != nil {
			e.gate.Close()
		}
		close(e.quit)
		e.wg.Wait()
		if e.wlog != nil {
			e.checkpointNow() // also syncs the WAL tail
			e.ingestMu.Lock()
			e.wlog.Close()
			e.ingestMu.Unlock()
		}
	})
}

// Ingest admits one streaming edge event. Events must arrive at or after the
// current watermark (LastTime of the underlying builder); stale events are
// rejected with an error wrapping ErrStaleEvent that reports the watermark,
// so producers can resynchronize. The first event of a fresh engine may
// carry any timestamp, negative included — there is no watermark yet to be
// behind. feat is the event's edge-feature row (nil admits a zero row when
// the graph carries edge features). judge is the whole rule, and it is the
// same for every way into the engine.
//
// Ingest holds only the writer lock: concurrent serving requests keep
// reading their pinned snapshots untouched. Every SnapshotEvery admitted
// events a new snapshot is published incrementally (O(delta) shared-prefix
// views, charged to the writer, never to readers).
//
// With durability configured, the event is appended to the WAL before it is
// admitted; a WAL failure returns an error wrapping ErrDurability and admits
// nothing — graph, feature buffer and log never diverge. The append rides
// the WAL's group commit, so the durable hot path stays allocation-free and
// a crash loses at most the unsynced tail (Durability.SyncEvery events).
func (e *Engine) Ingest(src, dst int32, t float64, feat []float64) error {
	if err := e.enter(overload.LaneIngest); err != nil {
		return err
	}
	defer e.leave(overload.LaneIngest)
	return e.admit(src, dst, t, feat)
}

// Apply admits one event exactly like Ingest but bypasses the read-only
// gate. It exists for the replication loop (internal/replica), which is the
// sole legitimate writer of a follower engine: replicated records go through
// the same door as leader ingest (admitLocked), so a follower's state is
// bitwise-equal to the leader's at every applied sequence number. Everything
// else must call Ingest.
//
// With admission control on, Apply rides the low-priority lane: replication
// catch-up is background work that must never crowd out a follower's read
// traffic — the read-only lanes stay bounded too (DESIGN.md §14).
func (e *Engine) Apply(src, dst int32, t float64, feat []float64) error {
	if err := e.enter(overload.LaneLow); err != nil {
		return err
	}
	defer e.leave(overload.LaneLow)
	return e.admit(src, dst, t, feat)
}

// admit takes one event through the door under the ingest lock, publishes a
// snapshot every SnapshotEvery events, and writes the periodic checkpoint —
// outside the lock — when its cadence is crossed.
func (e *Engine) admit(src, dst int32, t float64, feat []float64) error {
	e.ingestMu.Lock()
	err := e.admitLocked(src, dst, t, feat, false)
	checkpoint := false
	if err == nil {
		e.sinceSnap++
		if e.sinceSnap >= e.cfg.SnapshotEvery {
			e.publishLocked()
		}
		if e.wlog != nil && e.cfg.Durability.CheckpointEvery > 0 {
			e.sinceCkpt++
			if checkpoint = e.sinceCkpt >= e.cfg.Durability.CheckpointEvery; checkpoint {
				e.sinceCkpt = 0
			}
		}
	}
	e.ingestMu.Unlock()
	if checkpoint {
		e.checkpointNow()
	}
	return err
}

// judge is the one rule for what enters an engine, checked in this order:
// endpoints in range and a finite time (tgraph.Builder.Check), an
// edge-feature row of the configured width, and chronology against the
// watermark (wm, hasWM) — a stale event wraps ErrStaleEvent and names it. It
// returns the row to admit: nil from a producer is the zero row. A row read
// back from the engine's own store (stored) was logged resolved, so there
// nil is a row of width 0 like any other.
func (e *Engine) judge(src, dst int32, t float64, feat []float64, wm float64, hasWM, stored bool) ([]float64, error) {
	if err := e.gb.Check(src, dst, t); err != nil {
		return nil, fmt.Errorf("serve: event (%d→%d): %w", src, dst, err)
	}
	if feat == nil && !stored {
		feat = e.zeroRow
	}
	if len(feat) != e.cfg.EdgeDim {
		return nil, fmt.Errorf("serve: event (%d→%d): edge feature width %d, want %d", src, dst, len(feat), e.cfg.EdgeDim)
	}
	if hasWM && t < wm {
		return nil, fmt.Errorf("%w: event (%d→%d) at t=%v arrived behind watermark t=%v", ErrStaleEvent, src, dst, t, wm)
	}
	return feat, nil
}

// admitLocked is the door: every event that enters the engine — Ingest,
// Apply, Bootstrap, ApplyPrefix, Recover's checkpoint load and WAL replay —
// passes here, under the ingest lock. The event is judged against the
// watermark, WAL-logged before the builder sees it (so a crash can lose a
// logged-but-unadmitted suffix but never an admitted-but-unlogged event;
// skipped for an event read back from this engine's own store), added, and
// its feature row appended. A WAL failure wraps ErrDurability and admits
// nothing.
func (e *Engine) admitLocked(src, dst int32, t float64, feat []float64, stored bool) error {
	wm, hasWM := e.gb.LastTime()
	row, err := e.judge(src, dst, t, feat, wm, hasWM, stored)
	if err != nil {
		return err
	}
	if e.wlog != nil && !stored {
		if err := e.wlog.Append(src, dst, t, row); err != nil {
			e.walFailures.Add(1)
			return fmt.Errorf("%w: not logged: %w", ErrDurability, err)
		}
	}
	if err := e.gb.Add(src, dst, t); err != nil {
		return err
	}
	e.edgeFeat = append(e.edgeFeat, row...)
	return nil
}

// judgeRunLocked judges a bulk run as a whole, each event against the
// watermark the events before it leave, without admitting any of it.
func (e *Engine) judgeRunLocked(events []tgraph.Event, row func(int) []float64, stored bool) error {
	wm, hasWM := e.gb.LastTime()
	for i, ev := range events {
		if _, err := e.judge(ev.Src, ev.Dst, ev.Time, row(i), wm, hasWM, stored); err != nil {
			return fmt.Errorf("serve: bulk event %d: %w", i, err)
		}
		wm, hasWM = ev.Time, true
	}
	return nil
}

// admitRunLocked admits a bulk run all or nothing: the run is judged whole
// before its first event is admitted or logged, so a bad event i leaves
// events [0, i) out too and a corrected retry cannot admit them twice. Only
// a WAL failure can still stop a run midway — and the engine admits nothing
// after one. row(i) is event i's feature row.
func (e *Engine) admitRunLocked(events []tgraph.Event, row func(int) []float64, stored bool) error {
	if err := e.judgeRunLocked(events, row, stored); err != nil {
		return err
	}
	for i, ev := range events {
		if err := e.admitLocked(ev.Src, ev.Dst, ev.Time, row(i), stored); err != nil {
			return fmt.Errorf("serve: bulk event %d: %w", i, err)
		}
	}
	return nil
}

// checkRun judges a run against the engine's watermark without admitting
// it: a fleet judges a tee's two copies, and every shard's slice of a
// bootstrap, before any of them lands.
func (e *Engine) checkRun(events []tgraph.Event, row func(int) []float64) error {
	e.ingestMu.Lock()
	defer e.ingestMu.Unlock()
	return e.judgeRunLocked(events, row, false)
}

// rowsOf reads a bulk run's feature rows: row i of feats, or nil — the zero
// row — for every event when there is no matrix.
func rowsOf(feats *tensor.Matrix) func(int) []float64 {
	if feats == nil {
		return func(int) []float64 { return nil }
	}
	return feats.Row
}

// Bootstrap bulk-loads a historical event prefix (e.g. the offline training
// split) under one writer lock and publishes a single snapshot at the end,
// avoiding the per-SnapshotEvery repacks of event-by-event Ingest. feats may
// be nil; otherwise row i is event i's edge-feature row. The prefix is
// admitted all or nothing: an inadmissible event rejects it before any of it
// is admitted or logged.
//
// With durability configured, the prefix is WAL-logged like any other events
// (group commit amortizes the fsyncs) and a checkpoint covering it is
// written, so a restart recovers the bootstrap from the checkpoint instead
// of replaying it event by event.
func (e *Engine) Bootstrap(events []tgraph.Event, feats *tensor.Matrix) error {
	if err := e.enter(overload.LaneIngest); err != nil {
		return err
	}
	defer e.leave(overload.LaneIngest)
	return e.admitRun(events, rowsOf(feats))
}

// ApplyPrefix bulk-applies an event run exactly like Bootstrap but bypasses
// the read-only gate — the checkpoint catch-up path of internal/replica,
// which extends a follower's stream with the suffix of a leader checkpoint
// under one writer lock and one snapshot publication. Everything else must
// call Bootstrap. Like Apply, it rides the low-priority admission lane.
func (e *Engine) ApplyPrefix(events []tgraph.Event, feats *tensor.Matrix) error {
	if err := e.enter(overload.LaneLow); err != nil {
		return err
	}
	defer e.leave(overload.LaneLow)
	return e.admitRun(events, rowsOf(feats))
}

// admitRun is the ungated bulk path of Bootstrap, ApplyPrefix and the
// fleet's router: one admitted run, one snapshot publication, and on a
// durable engine a checkpoint covering it.
func (e *Engine) admitRun(events []tgraph.Event, row func(int) []float64) error {
	e.ingestMu.Lock()
	err := e.admitRunLocked(events, row, false)
	if err == nil {
		e.publishLocked()
	}
	e.ingestMu.Unlock()
	if err != nil {
		return err
	}
	if e.wlog != nil {
		e.checkpointNow()
	}
	return nil
}

// PublishSnapshot forces an immediate snapshot publication (e.g. before a
// consistency check) and returns it.
func (e *Engine) PublishSnapshot() *Snapshot {
	e.ingestMu.Lock()
	defer e.ingestMu.Unlock()
	e.publishLocked()
	return e.snap.Load()
}

// Pin returns the current published snapshot. The result is immutable and
// remains valid indefinitely; holding it is what "pinning" means.
func (e *Engine) Pin() *Snapshot { return e.snap.Load() }

// PublishWeights offers an immutable parameter snapshot to the serving path.
// The scheduler applies it at the start of its next flush, so every
// micro-batch runs under exactly one weight version and in-flight batches
// are never retroactively perturbed. Publication is lock-free on both
// sides: the publisher performs a shape check and an atomic store; the
// scheduler's apply is a plain parameter copy on its own goroutine.
//
// Sets must be captured from the same architecture the engine serves
// (models.CaptureWeights over (Model, Pred) in that order) and must carry a
// version newer than the currently applied one; older or duplicate versions
// are dropped so a slow publisher can never roll serving backwards. The
// caller must not mutate w after publishing.
//
// With durability configured, every accepted publication synchronously
// writes a checkpoint pairing the new weights with the stream prefix they
// serve, so a crash never rolls recovered serving back past a weight
// version a client may have observed. Checkpoint write failures are counted
// in Stats, not returned: the publication itself stands (the engine keeps
// serving the new weights) and the previous checkpoint plus WAL still
// protect the stream.
func (e *Engine) PublishWeights(w *models.WeightSet) error {
	if err := e.publishWeightsCore(w); err != nil {
		return err
	}
	if e.wlog != nil {
		e.checkpointNow()
	}
	return nil
}

// publishWeightsCore validates and stores a weight set without the
// durability side effect (Recover republishes checkpointed weights through
// it — re-checkpointing the state just restored would be a pointless write).
func (e *Engine) publishWeightsCore(w *models.WeightSet) error {
	if w == nil {
		return fmt.Errorf("serve: PublishWeights(nil)")
	}
	if err := w.Matches(e.cfg.Model, e.cfg.Pred); err != nil {
		return fmt.Errorf("serve: published weights do not fit the serving model: %w", err)
	}
	// CAS loop against the latest *published* set (which may be ahead of the
	// applied version when no flush has run yet), so a slower publisher can
	// neither clobber a newer pending set nor sneak in behind the applied
	// version — monotonicity holds under concurrent publishers.
	for {
		cur := e.weights.Load()
		latest := e.weightVersion.Load()
		if cur != nil && cur.Version > latest {
			latest = cur.Version
		}
		if w.Version <= latest {
			return fmt.Errorf("serve: weight version %d not newer than version %d", w.Version, latest)
		}
		if e.weights.CompareAndSwap(cur, w) {
			return nil
		}
	}
}

// WeightVersion reports the weight version currently applied to the serving
// model (1 until the first published set is swapped in).
func (e *Engine) WeightVersion() uint64 { return e.weightVersion.Load() }

// PublishedWeights returns the newest weight set offered to the serving path
// (which the scheduler may not have applied yet), or nil while the engine
// still serves its constructor weights. The fleet uses it after per-shard
// recovery to level shards that checkpointed different weight versions
// (a crash can split a publication fan-out); the returned set is immutable.
func (e *Engine) PublishedWeights() *models.WeightSet { return e.weights.Load() }

// SetWritable flips the engine between writable (the default) and read-only.
// A read-only engine rejects Ingest and Bootstrap with ErrReadOnly while
// serving predictions and embeddings normally; the replication loop writes
// through Apply/ApplyPrefix. Promotion of a follower is SetWritable(true).
func (e *Engine) SetWritable(w bool) { e.readOnly.Store(!w) }

// Writable reports whether the public write API is open.
func (e *Engine) Writable() bool { return !e.readOnly.Load() }

// Config returns the configuration the engine runs, defaults filled. Whatever
// attaches to an engine — a fine-tuner's build path, a replication pair
// agreeing on the edge-feature width — reads it here and is not told again.
// Model and Pred are the engine's own: once weights are published its
// scheduler writes them, so a caller may read their shapes, never their values.
func (e *Engine) Config() Config { return e.cfg }

// Durable exposes the engine's durable store location (and file-op layer)
// for the replication leader, which serves the WAL and checkpoints over
// HTTP. ok is false when durability is off — such an engine cannot lead.
func (e *Engine) Durable() (fsys wal.FS, dir string, ok bool) {
	if e.wlog == nil {
		return nil, "", false
	}
	return e.cfg.Durability.FS, e.cfg.Durability.Dir, true
}

// DurableErr reports the WAL's sticky failure: nil while the log is healthy
// or durability is off. A non-nil value means no further events can be made
// durable until the process restarts over a repaired store — the leader-side
// health check (/v1/healthz) keys on it.
func (e *Engine) DurableErr() error {
	if e.wlog == nil {
		return nil
	}
	e.ingestMu.Lock()
	defer e.ingestMu.Unlock()
	return e.wlog.Err()
}

// Checkpoint forces an immediate durable checkpoint of the current stream,
// watermark and published weights (the same capture PublishWeights and Close
// perform). Promotion uses it to seal the follower's log at the hand-off
// point. Write failures are counted in Stats, not returned — the WAL remains
// the source of truth; the error here only reports a non-durable engine.
func (e *Engine) Checkpoint() error {
	if e.wlog == nil {
		return fmt.Errorf("serve: Checkpoint requires Config.Durability.Dir")
	}
	e.checkpointNow()
	return nil
}

// Watermark reports the ingest watermark (which may be ahead of the latest
// published snapshot's) and whether any event has been ingested. ok is false
// only before the first event: an engine may legitimately sit at a t=0 or
// negative watermark.
func (e *Engine) Watermark() (t float64, ok bool) {
	e.ingestMu.Lock()
	defer e.ingestMu.Unlock()
	return e.gb.LastTime()
}

// NumEvents reports the live ingested event count (which may be ahead of the
// latest published snapshot's).
func (e *Engine) NumEvents() int {
	e.ingestMu.Lock()
	defer e.ingestMu.Unlock()
	return e.gb.NumEvents()
}

// publishLocked publishes the current stream as a new immutable snapshot.
// Cost is proportional to the delta since the previous publication: the
// builder's Snapshot shares untouched adjacency chunks and the event list
// structurally, and the edge-feature matrix is a capped (len == cap) prefix
// view of the append-only e.edgeFeat — not a copy of NumEvents()×EdgeDim
// floats. Later appends never write inside a published view.
func (e *Engine) publishLocked() {
	g, tcsr := e.gb.Snapshot()
	w := g.NumEvents() * e.cfg.EdgeDim
	ef := tensor.FromSlice(g.NumEvents(), e.cfg.EdgeDim, e.edgeFeat[:w:w])
	wm, hasWM := e.gb.LastTime()
	e.version++
	e.snap.Store(&Snapshot{
		Version: e.version, Graph: g, TCSR: tcsr, EdgeFeat: ef,
		Watermark: wm, HasWatermark: hasWM,
	})
	e.sinceSnap = 0
}
