package serve

import (
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"taser/internal/autograd"
	"taser/internal/models"
	"taser/internal/overload"
	"taser/internal/tensor"
	"taser/internal/tgraph"
)

// Fleet shards the serving plane: K independent Engines, each owning a
// hash partition of the node id space, behind the Engine-shaped
// surface the HTTP layer and load generators already speak. DESIGN.md §13.
//
// The partition rule is ownership by destination with an endpoint tee: an
// event (src→dst, t) is stored on owner(dst) and, when the endpoints hash to
// different shards, teed to owner(src) as well. Every event touching a node v
// therefore lands on owner(v) in stream order, so v's temporal adjacency,
// edge-feature rows and last-event-time on its owner shard are bitwise
// identical to the single-engine ones. That makes exactly one hop of temporal
// neighborhood shard-locally complete — which is why a K>1 fleet requires a
// one-layer model (GraphMixer): a two-layer backbone like TGAT reads hop-2
// neighborhoods that may live on other shards, and serving it bitwise-correct
// needs recursive scatter/gather (future work, not silent approximation).
//
// Prediction routes by endpoint ownership: (src, dst) on one shard is
// answered locally (one micro-batched engine call, the K=1 fast path);
// endpoints on different shards scatter one Embed to each owner and the
// router scores the gathered pair with its own predictor clone — bitwise the
// same decoder pass the engine's flush runs, just two rows wide. A fleet
// serves the weights it was built with for its whole life, so the shards and
// the router's clone always agree on them.
//
// Concurrency composes by ownership exactly as §5 promises: each engine's
// scheduler privately owns its builder, graph and arena, so the fleet adds
// routing, not locking — its only synchronization is per-shard ingest
// ordering (tee atomicity) and a close gate that drains in-flight
// scatter/gathers before any shard's scheduler shuts down.
type Fleet struct {
	cfg Config // normalized template; Model/Pred are the caller's originals (shards hold clones)

	shards []*Engine
	// shardMu[i] serializes fleet writes into shard i. A teed event locks both
	// target shards in ascending index order, pre-checks both watermarks, and
	// only then applies — so a tee is atomic: it can never land on one shard
	// and be rejected as stale by the other.
	shardMu []sync.Mutex

	// opMu is the drain gate: every public op holds it for reading, Close
	// takes it for writing. Close therefore waits for every in-flight
	// ingest/predict/embed — scatter/gather included — before any shard
	// scheduler shuts down, and ops arriving after Close fail with ErrClosed
	// at the fleet gate instead of racing a half-closed fleet.
	opMu   sync.RWMutex
	closed bool

	// pred is the router's predictor clone for cross-shard pairs, made in
	// NewFleet and never written afterwards — so scoring takes no lock.
	pred *models.EdgePredictor

	ingested   atomic.Uint64 // distinct events admitted fleet-wide
	teed       atomic.Uint64 // cross-shard duplicates stored for neighborhood completeness
	requests   atomic.Uint64 // fleet-level serving calls
	crossShard atomic.Uint64 // predictions that scattered across two shards
	lat        latencyRing   // fleet-level latency (includes scatter/gather overhead)

	// testEntered, when non-nil, runs after an op passes the closed gate —
	// the drain-ordering regression test uses it to hold requests in flight
	// while Close runs.
	testEntered func()
}

// FleetConfig wires K engines into a Fleet. The embedded Config is the
// per-shard template: every shard gets clones of Model/Pred (the originals
// stay with the caller) and, when Durability.Dir is set, its own WAL
// directory <Dir>/shard-<i> with fully independent recovery.
type FleetConfig struct {
	Config
	Shards int // engine count K (default 1)
}

// ShardError attributes a fleet failure to the shard that raised it; it
// unwraps to the shard's error so errors.Is(err, ErrStaleEvent) etc. keep
// working through the fleet surface.
type ShardError struct {
	Shard int
	Err   error
}

func (e *ShardError) Error() string { return fmt.Sprintf("shard %d: %v", e.Shard, e.Err) }
func (e *ShardError) Unwrap() error { return e.Err }

// NewFleet builds and starts a fleet of cfg.Shards engines. A K=1 fleet is
// the degenerate partition — every node owned by shard 0, every call the
// local fast path — and serves bitwise-identically to a bare Engine. K>1 requires a
// one-layer model (see the type comment for why).
func NewFleet(cfg FleetConfig) (*Fleet, error) {
	base, err := cfg.Config.normalize()
	if err != nil {
		return nil, err
	}
	if cfg.Shards == 0 {
		cfg.Shards = 1
	}
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("serve: FleetConfig.Shards must be at least 1, got %d", cfg.Shards)
	}
	if cfg.Shards > 1 && base.Model.NumLayers() > 1 {
		return nil, fmt.Errorf("serve: a %d-shard fleet requires a one-layer model (got %d layers): "+
			"the endpoint tee keeps exactly one hop of temporal neighborhood shard-locally complete, "+
			"so multi-hop backbones (TGAT) would silently read incomplete hop-2 neighborhoods",
			cfg.Shards, base.Model.NumLayers())
	}
	f := &Fleet{
		cfg:     base,
		shardMu: make([]sync.Mutex, cfg.Shards),
		pred:    base.Pred.Clone(),
	}
	f.lat.init(latencyWindow)
	for i := 0; i < cfg.Shards; i++ {
		sc := base
		sc.Model = base.Model.Clone()
		sc.Pred = base.Pred.Clone()
		if sc.Durability.Dir != "" {
			sc.Durability.Dir = filepath.Join(base.Durability.Dir, fmt.Sprintf("shard-%d", i))
		}
		e, err := New(sc)
		if err != nil {
			for _, s := range f.shards {
				s.Close()
			}
			return nil, fmt.Errorf("serve: fleet shard %d: %w", i, err)
		}
		f.shards = append(f.shards, e)
	}
	return f, nil
}

// enter admits one public op through the drain gate; every return path must
// call leave exactly once after a nil error.
func (f *Fleet) enter() error {
	f.opMu.RLock()
	if f.closed {
		f.opMu.RUnlock()
		return ErrClosed
	}
	if f.testEntered != nil {
		f.testEntered()
	}
	return nil
}

func (f *Fleet) leave() { f.opMu.RUnlock() }

// Close drains and shuts the fleet down: the write lock waits for every
// in-flight op (an op holds the read side for its whole life, scatter legs
// included), the closed flag turns new ops away at the fleet gate, and only
// then do the shard engines close — so no in-flight scatter/gather ever hits
// a closed shard scheduler. Each shard's Close performs its usual final
// checkpoint. Safe to call multiple times.
func (f *Fleet) Close() {
	f.opMu.Lock()
	already := f.closed
	f.closed = true
	f.opMu.Unlock()
	if already {
		return
	}
	for _, s := range f.shards {
		s.Close()
	}
}

// owner maps a node id to the shard that owns it: SplitMix64 of (seed, node)
// modulo K. Ownership is a pure function of (K, seed), so a restarted fleet
// reopens each per-shard store under the layout that wrote it (Recover checks
// that it did), and a hash rather than the ids decides it, so densely
// assigned ids spread evenly over the shards.
func (f *Fleet) owner(node int32) int {
	return int(mix64(f.cfg.Seed^mix64(uint64(uint32(node))+0x5bf0_3635)) % uint64(len(f.shards)))
}

// mix64 is SplitMix64's finalizer: a cheap, well-distributed 64-bit mixer
// (the same construction the WAL's synthetic-stream tests use for ids).
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// targets returns the owning shard(s) of an event in ascending index order:
// owner(dst) always, plus owner(src) when the endpoints hash apart.
func (f *Fleet) targets(src, dst int32) (a, b int, teed bool) {
	od, os := f.owner(dst), f.owner(src)
	if od == os {
		return od, od, false
	}
	if os < od {
		return os, od, true
	}
	return od, os, true
}

// Ingest admits one streaming edge event, routed to the shard owning its
// destination node and teed to the source's owner when that differs. The tee
// is atomic: both target shards are locked (ascending index order) and both
// copies judged — each shard's own rule against its own watermark — before
// either shard admits, so an event is either on every shard that needs it or
// on none. The watermark contract is per-shard — an event must be
// at-or-after the watermark of each shard it lands on, which for an
// in-(per-shard-)order stream is exactly the single-engine contract.
//
// Admission control composes by canonical ownership: the event passes the
// ingest lane of exactly one gate — the shard owning dst, the copy the fleet
// counts as canonical — and then applies to both targets ungated. Gating both
// shards of a tee would be hold-and-wait across two bounded gates (deadlock
// under crossed floods); gating one bounds the fleet's ingest admission
// without it, and per-shard shed counters stay attributable to the owner.
func (f *Fleet) Ingest(src, dst int32, t float64, feat []float64) error {
	if err := f.enter(); err != nil {
		return err
	}
	defer f.leave()
	owner := f.owner(dst)
	if err := f.shards[owner].enter(overload.LaneIngest); err != nil {
		return &ShardError{Shard: owner, Err: err}
	}
	defer f.shards[owner].leave(overload.LaneIngest)
	a, b, teed := f.targets(src, dst)
	f.shardMu[a].Lock()
	defer f.shardMu[a].Unlock()
	if teed {
		f.shardMu[b].Lock()
		defer f.shardMu[b].Unlock()
		ev := []tgraph.Event{{Src: src, Dst: dst, Time: t}}
		row := func(int) []float64 { return feat }
		for _, s := range [2]int{a, b} {
			if err := f.shards[s].checkRun(ev, row); err != nil {
				return &ShardError{Shard: s, Err: err}
			}
		}
	}
	if err := f.shards[a].admit(src, dst, t, feat); err != nil {
		return &ShardError{Shard: a, Err: err}
	}
	if teed {
		if err := f.shards[b].admit(src, dst, t, feat); err != nil {
			return &ShardError{Shard: b, Err: err}
		}
	}
	f.ingested.Add(1)
	if teed {
		f.teed.Add(1)
	}
	return nil
}

// Bootstrap bulk-loads a historical event prefix: the stream is partitioned
// into per-shard subsequences (order preserved, teed events in both) and each
// shard bulk-applies its slice under one writer lock and one snapshot
// publication — the fleet-shaped analogue of Engine.Bootstrap, durable
// checkpoints included. It is all or nothing across the fleet: every shard's
// ingest gate is entered and every shard's slice judged against that shard's
// watermark before any shard admits an event (as on one engine, only a WAL
// failure can still stop it midway).
func (f *Fleet) Bootstrap(events []tgraph.Event, feats *tensor.Matrix) error {
	if err := f.enter(); err != nil {
		return err
	}
	defer f.leave()
	// Gates before write locks, in ascending order — Ingest's one gate is
	// also taken before its locks, so the two can never wait on each other.
	for s, e := range f.shards {
		if err := e.enter(overload.LaneIngest); err != nil {
			return &ShardError{Shard: s, Err: err}
		}
		defer e.leave(overload.LaneIngest)
	}
	for i := range f.shardMu {
		f.shardMu[i].Lock()
		defer f.shardMu[i].Unlock()
	}
	perEv := make([][]tgraph.Event, len(f.shards))
	perIdx := make([][]int, len(f.shards)) // shard slice position → index in events
	var teed uint64
	for i, ev := range events {
		a, b, t := f.targets(ev.Src, ev.Dst)
		perEv[a], perIdx[a] = append(perEv[a], ev), append(perIdx[a], i)
		if t {
			perEv[b], perIdx[b] = append(perEv[b], ev), append(perIdx[b], i)
			teed++
		}
	}
	rows, perRow := rowsOf(feats), make([]func(int) []float64, len(f.shards))
	for s := range f.shards {
		idx := perIdx[s]
		perRow[s] = func(j int) []float64 { return rows(idx[j]) }
		if err := f.shards[s].checkRun(perEv[s], perRow[s]); err != nil {
			return &ShardError{Shard: s, Err: err}
		}
	}
	for s, e := range f.shards {
		if err := e.admitRun(perEv[s], perRow[s]); err != nil {
			return &ShardError{Shard: s, Err: err}
		}
	}
	f.ingested.Add(uint64(len(events)))
	f.teed.Add(teed)
	return nil
}

// Embed returns node's embedding at query time t, served by the shard that
// owns the node (whose temporal neighborhood for it is locally complete).
func (f *Fleet) Embed(node int32, t float64) (EmbedResult, error) {
	if err := f.enter(); err != nil {
		return EmbedResult{}, err
	}
	defer f.leave()
	start := time.Now()
	res, err := f.shards[f.owner(node)].Embed(node, t)
	f.lat.add(time.Since(start))
	f.requests.Add(1)
	return res, err
}

// PredictLink returns the link logit for (src, dst) at query time t. When
// both endpoints hash to one shard the request is answered locally; otherwise
// the fleet scatters one Embed to each owner and scores the gathered pair
// with the router's predictor clone — bitwise the engine's own decoder pass
// over the same two embeddings. The result's Version is the src owner's
// snapshot version; staleness is bounded per shard by each owner's watermark
// (DESIGN.md §13).
func (f *Fleet) PredictLink(src, dst int32, t float64) (PredictResult, error) {
	if err := f.enter(); err != nil {
		return PredictResult{}, err
	}
	defer f.leave()
	start := time.Now()
	res, err := f.predictLink(src, dst, t)
	f.lat.add(time.Since(start))
	f.requests.Add(1)
	return res, err
}

func (f *Fleet) predictLink(src, dst int32, t float64) (PredictResult, error) {
	ss, sd := f.owner(src), f.owner(dst)
	if ss == sd {
		return f.shards[ss].PredictLink(src, dst, t)
	}
	f.crossShard.Add(1)
	var (
		rb EmbedResult
		eb error
		wg sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		rb, eb = f.shards[sd].Embed(dst, t)
	}()
	ra, ea := f.shards[ss].Embed(src, t)
	wg.Wait()
	if ea != nil {
		return PredictResult{}, &ShardError{Shard: ss, Err: ea}
	}
	if eb != nil {
		return PredictResult{}, &ShardError{Shard: sd, Err: eb}
	}
	return PredictResult{
		Score: f.scorePair(ra.Embedding, rb.Embedding), Version: ra.Version, Weights: ra.Weights,
		Cached: ra.Cached && rb.Cached,
	}, nil
}

// scorePair runs the router's predictor clone over one gathered (src, dst)
// embedding pair — the same ScoreGathered pass the engine's flush uses, so
// the logit is bitwise what a single engine holding both embeddings would
// serve.
func (f *Fleet) scorePair(srcEmb, dstEmb []float64) float64 {
	d := f.cfg.Model.HiddenDim()
	m := tensor.New(2, d)
	copy(m.Row(0), srcEmb)
	copy(m.Row(1), dstEmb)
	g := autograd.New()
	logit := f.pred.ScoreGathered(g, autograd.NewConst(m), []int32{0}, []int32{1})
	return logit.Val.Data[0]
}

// PublishSnapshot forces an immediate snapshot publication on every shard
// (the fleet analogue of Engine.PublishSnapshot, e.g. after a bulk replay).
func (f *Fleet) PublishSnapshot() {
	if err := f.enter(); err != nil {
		return
	}
	defer f.leave()
	for _, s := range f.shards {
		s.PublishSnapshot()
	}
}

// Watermark reports the fleet-wide ingest watermark: the maximum over the
// shards' (each shard's is the latest event it stored). ok is false until any
// shard has an event.
func (f *Fleet) Watermark() (t float64, ok bool) {
	for _, s := range f.shards {
		if wm, has := s.Watermark(); has && (!ok || wm > t) {
			t, ok = wm, true
		}
	}
	return t, ok
}

// NumEvents reports the distinct events admitted fleet-wide — teed duplicates
// are accounted separately (Stats().Teed), so the count matches what a single
// engine fed the same stream would report.
func (f *Fleet) NumEvents() int { return int(f.ingested.Load()) }

// Writable reports whether the public write API is open — always true: fleets
// do not participate in replication (DESIGN.md §13 explains the composition
// order: replication will wrap each shard, not the fleet).
func (f *Fleet) Writable() bool { return true }

// DurableErr reports the first shard's sticky WAL failure, nil while every
// shard's log is healthy (or durability is off). One failed shard makes the
// whole fleet unhealthy for writes — readiness aggregates, it does not mask.
func (f *Fleet) DurableErr() error {
	for i, s := range f.shards {
		if err := s.DurableErr(); err != nil {
			return &ShardError{Shard: i, Err: err}
		}
	}
	return nil
}

// FleetStats is a point-in-time summary of the fleet and its /v1/stats
// payload: the routing counters, then the shards' Stats folded into one view
// under the keys a standalone engine reports (Stats.Merge has the rules), then
// every shard's own block. Three fields of the merged view are the router's,
// not a fold: Requests and P50/P99 count and time fleet-level calls —
// scatter/gather overhead included, which no shard sees — and Events is the
// distinct count (the shards' sum, teed copies included, is SnapshotEvents).
type FleetStats struct {
	ShardCount     int    `json:"shard_count"`
	Teed           uint64 `json:"events_teed"` // cross-shard duplicates (Events counts each event once)
	CrossShard     uint64 `json:"cross_shard_predicts"`
	SnapshotEvents int    `json:"snapshot_events_total"` // events across the shards' published snapshots
	Stats
	Shards []ShardStats `json:"shards"`
}

// ShardStats is one shard's block of FleetStats: its engine's Stats (WAL
// counters and checkpoint age are per-shard by construction — every shard
// runs its own log and checkpoint cadence) labeled with its index.
type ShardStats struct {
	Shard int `json:"shard"`
	Stats
}

// Stats snapshots the fleet's counters and every shard's.
func (f *Fleet) Stats() FleetStats {
	st := FleetStats{
		ShardCount: len(f.shards),
		Teed:       f.teed.Load(),
		CrossShard: f.crossShard.Load(),
	}
	for i, s := range f.shards {
		st.Shards = append(st.Shards, ShardStats{Shard: i, Stats: s.Stats()})
	}
	st.Stats = st.Shards[0].Stats
	for _, ss := range st.Shards[1:] {
		st.Merge(ss.Stats)
	}
	st.SnapshotEvents = st.Events
	st.Events = int(f.ingested.Load())
	st.Requests = f.requests.Load()
	st.P50, st.P99 = f.lat.percentiles()
	st.derive(time.Now())
	return st
}

// Recover restores every shard independently from its own WAL directory
// (each to bitwise equivalence with its pre-crash stream prefix, per the
// Engine.Recover contract), then validates and recounts the fleet:
//
//   - Weights. A fleet serves the weights it was built with, so a shard that
//     recovers any other weight version was not written by a fleet; Recover
//     refuses it.
//
//   - Layout validation + dedup accounting. Every recovered event must be
//     owned by the shard holding it under the current partition — a mismatch
//     means the store was written with a different -shards K or seed, which
//     is unsupported and fails loudly here instead of serving wrong
//     neighborhoods. The scan also recomputes the distinct/teed counters (an
//     event's canonical copy is the one on owner(dst)).
//
// The report carries every shard's own under Shards; its event counts are
// their sums (teed copies included, Teed of them) and its watermark the
// fleet's. Like Engine.Recover, it must run on a freshly built Fleet before
// any traffic.
func (f *Fleet) Recover() (RecoveryReport, error) {
	var rep RecoveryReport
	if err := f.enter(); err != nil {
		return rep, err
	}
	defer f.leave()
	start := time.Now()
	for i, s := range f.shards {
		r, err := s.Recover()
		if err != nil {
			return rep, &ShardError{Shard: i, Err: err}
		}
		if r.WeightVersion != 1 {
			return rep, &ShardError{Shard: i, Err: fmt.Errorf(
				"serve: recovered weight version %d, but a fleet serves only the weights it was built with "+
					"(version 1) — the store at %q was not written by a fleet", r.WeightVersion, f.cfg.Durability.Dir)}
		}
		rep.Shards = append(rep.Shards, r)
		rep.CheckpointEvents += r.CheckpointEvents
		rep.ReplayedEvents += r.ReplayedEvents
		rep.HealedEvents += r.HealedEvents
	}

	rep.WeightVersion = 1

	var distinct, total int
	for i, s := range f.shards {
		for _, ev := range s.Pin().Graph.Events {
			od, os := f.owner(ev.Dst), f.owner(ev.Src)
			if od != i && os != i {
				return rep, fmt.Errorf(
					"serve: recovered shard %d holds event (%d→%d) owned by shards (%d, %d) — "+
						"the store at %q was written under a different shard layout "+
						"(changing -shards over an existing store is unsupported)",
					i, ev.Src, ev.Dst, os, od, f.cfg.Durability.Dir)
			}
			if od == i {
				distinct++
			}
			total++
		}
	}
	f.ingested.Store(uint64(distinct))
	f.teed.Store(uint64(total - distinct))
	rep.Teed = uint64(total - distinct)
	rep.Watermark, rep.HasWatermark = f.Watermark()
	rep.Duration = time.Since(start)
	return rep, nil
}
