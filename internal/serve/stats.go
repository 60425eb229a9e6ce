package serve

import (
	"sort"
	"sync"
	"time"

	"taser/internal/overload"
	"taser/internal/stats"
)

// latencyRing keeps the most recent request latencies for percentile
// reporting: a fixed ring so a long-running engine's stats stay O(1) in
// memory and reflect recent behavior rather than the whole history.
type latencyRing struct {
	mu  sync.Mutex
	buf []float64 // seconds
	n   uint64    // total samples ever
	idx int
}

func (r *latencyRing) init(capacity int) {
	r.buf = make([]float64, 0, capacity)
}

func (r *latencyRing) add(d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.n++
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, d.Seconds())
		return
	}
	r.buf[r.idx] = d.Seconds()
	r.idx = (r.idx + 1) % len(r.buf)
}

// sample copies the retained window into dst and returns it. Copy-only
// under the lock: sorting (and any other O(n log n) work) happens in the
// caller's buffer, so sampling never stalls the request path's add().
func (r *latencyRing) sample(dst []float64) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append(dst[:0], r.buf...)
}

// percentiles returns P50 and P99 of the retained window (0 when empty),
// both from one sample() copy sorted after the lock is released, so a stats
// read never stalls add() either.
func (r *latencyRing) percentiles() (p50, p99 time.Duration) {
	w := r.sample(nil)
	sort.Float64s(w)
	return windowQuantile(w, 0.50), windowQuantile(w, 0.99)
}

// windowQuantile is the q-quantile of a sorted latency window (0 when empty).
func windowQuantile(sorted []float64, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return time.Duration(stats.SortedQuantile(sorted, q) * float64(time.Second))
}

// Stats is a point-in-time summary of an engine and, marshalled as is, its
// /v1/stats payload. The same type is a standalone engine's view, each
// per-shard block of a fleet and — folded with Merge — the fleet's merged top
// level, so a counter is declared once here (with its wire name) and given
// its fold rule once in Merge; nothing else spells it out. Scalars are
// declared before the nested blocks because clients that grep the body (the
// smoke scripts' `field` helper) take the first textual match of a key.
type Stats struct {
	LiveWatermark    float64 `json:"live_watermark"`     // ingest watermark; may lead the published snapshot's
	HasLiveWatermark bool    `json:"has_live_watermark"` // false until the first event is ingested
	Nodes            int     `json:"nodes"`              // node id space the engine was built for

	Requests uint64 `json:"requests"` // serving calls completed
	Batches  uint64 `json:"batches"`  // micro-batches that reached the model forward
	Roots    uint64 `json:"-"`        // non-cached roots embedded across those batches (wire: avg_batch)

	CacheHits   uint64 `json:"cache_hits"`
	CacheStale  uint64 `json:"cache_stale"` // resident entries invalidated by ingest (subset of misses)
	CacheMisses uint64 `json:"cache_misses"`

	// Inner-embedding memo (memo.go; zero for a one-layer model): lookups of
	// targets under the top that hit and missed, rows held, and times the
	// table was emptied (a weight swap, or the NumNodes·Budget bound).
	MemoHits    uint64 `json:"memo_hits"`
	MemoMisses  uint64 `json:"memo_misses"`
	MemoEntries int64  `json:"memo_entries"`
	MemoResets  uint64 `json:"memo_resets"`

	SnapshotVersion uint64  `json:"snapshot_version"`
	Watermark       float64 `json:"watermark"`     // latest published snapshot's watermark (see HasWatermark)
	HasWatermark    bool    `json:"has_watermark"` // false until the first event reaches a published snapshot
	Events          int     `json:"events"`        // events in the latest published snapshot

	WeightVersion uint64        `json:"weight_version"` // weight version applied to the serving model
	WeightSwaps   uint64        `json:"weight_swaps"`   // published weight sets swapped in so far
	AvgSwap       time.Duration `json:"-"`              // mean time the scheduler spent applying one set

	// Durability counters (zero when durability is off; see durability.go).
	Durable          bool      `json:"durable"`
	WALAppended      uint64    `json:"wal_appended"`      // events appended to the WAL (buffered tail included)
	WALSynced        uint64    `json:"wal_synced"`        // events known durable
	WALSyncs         uint64    `json:"wal_syncs"`         // fsync batches performed
	WALSegments      int       `json:"wal_segments"`      // segment files written across the log's lifetime
	WALFailures      uint64    `json:"wal_failures"`      // ingest attempts rejected by a failing WAL
	Checkpoints      uint64    `json:"checkpoints"`       // checkpoints written
	CheckpointFails  uint64    `json:"checkpoint_fails"`  // checkpoint writes that failed (engine kept serving)
	CheckpointEvents uint64    `json:"checkpoint_events"` // events covered by the newest checkpoint
	LastCheckpoint   time.Time `json:"-"`                 // wall time of the newest checkpoint write (zero = none yet)

	// ReadOnly reports a replica follower (the public write API rejects with
	// ErrReadOnly; see internal/replica).
	ReadOnly bool `json:"read_only"`

	P50, P99 time.Duration `json:"-"` // over the recent-latency window

	// Wire-only fields: ratios, and the durations and times above in the
	// units the payload reports. derive fills them, nothing else writes them.
	AvgBatch        float64 `json:"avg_batch"`      // Roots / Batches
	CacheHitRate    float64 `json:"cache_hit_rate"` // hits / (hits + misses)
	AvgSwapUS       int64   `json:"avg_swap_us"`
	CheckpointAgeMS int64   `json:"checkpoint_age_ms"` // -1 = no checkpoint yet
	P50US           int64   `json:"p50_us"`
	P99US           int64   `json:"p99_us"`

	// ReplicationStats is non-nil on a node started as a replica; its repl_*
	// keys sit at the top level of the payload.
	*ReplicationStats

	// Overload is nil unless the overload control plane is on (DESIGN.md
	// §14) — the disabled engine's stats are bitwise those of the seed.
	Overload *OverloadStats `json:"overload,omitempty"`
}

// ReplicationStats is the replication block of /v1/stats, reported by
// internal/replica through HandlerConfig.Replication.
type ReplicationStats struct {
	Role       string `json:"repl_role"`  // "follower", or "leader" once promoted
	State      string `json:"repl_state"` // replica.State
	Applied    uint64 `json:"repl_applied"`
	LeaderSeq  uint64 `json:"repl_leader_seq"`
	Lag        uint64 `json:"repl_lag"`
	Polls      uint64 `json:"repl_polls"`
	FaultPolls uint64 `json:"repl_fault_polls"`
	DupRecords uint64 `json:"repl_dup_records"`
}

// OverloadStats reports the overload control plane: its admission gate.
type OverloadStats struct {
	Gate *overload.GateStats `json:"gate,omitempty"`
}

// Merge folds another engine's Stats into s — how a fleet builds its merged
// view from its shards, starting from a (by-value) copy of the first. One line per field
// is that field's fold rule:
//
//	sum   throughput, cache, memo, WAL and checkpoint counters, event counts
//	max   watermarks (among shards that have one), snapshot version, latency
//	      and swap-time bounds, the node id space (one config for all shards)
//	min   the weight version (the one guaranteed applied everywhere), the
//	      newest-checkpoint time (the oldest bounds recovery replay)
//	and   Durable;  or  ReadOnly
//
// The wire-only fields are not folded: the caller finishes with derive. A
// merged view has no single replication role, so that block is dropped.
func (s *Stats) Merge(o Stats) {
	if o.HasLiveWatermark && (!s.HasLiveWatermark || o.LiveWatermark > s.LiveWatermark) {
		s.LiveWatermark, s.HasLiveWatermark = o.LiveWatermark, true
	}
	s.Nodes = max(s.Nodes, o.Nodes)
	s.Requests += o.Requests
	s.Batches += o.Batches
	s.Roots += o.Roots
	s.CacheHits += o.CacheHits
	s.CacheStale += o.CacheStale
	s.CacheMisses += o.CacheMisses
	s.MemoHits += o.MemoHits
	s.MemoMisses += o.MemoMisses
	s.MemoEntries += o.MemoEntries
	s.MemoResets += o.MemoResets
	s.SnapshotVersion = max(s.SnapshotVersion, o.SnapshotVersion)
	if o.HasWatermark && (!s.HasWatermark || o.Watermark > s.Watermark) {
		s.Watermark, s.HasWatermark = o.Watermark, true
	}
	s.Events += o.Events
	s.WeightVersion = min(s.WeightVersion, o.WeightVersion)
	s.WeightSwaps += o.WeightSwaps
	s.AvgSwap = max(s.AvgSwap, o.AvgSwap)
	s.Durable = s.Durable && o.Durable
	s.WALAppended += o.WALAppended
	s.WALSynced += o.WALSynced
	s.WALSyncs += o.WALSyncs
	s.WALSegments += o.WALSegments
	s.WALFailures += o.WALFailures
	s.Checkpoints += o.Checkpoints
	s.CheckpointFails += o.CheckpointFails
	s.CheckpointEvents += o.CheckpointEvents
	if !o.LastCheckpoint.IsZero() && (s.LastCheckpoint.IsZero() || o.LastCheckpoint.Before(s.LastCheckpoint)) {
		s.LastCheckpoint = o.LastCheckpoint
	}
	s.ReadOnly = s.ReadOnly || o.ReadOnly
	s.P50 = max(s.P50, o.P50)
	s.P99 = max(s.P99, o.P99)
	s.ReplicationStats = nil
	if s.Overload != nil && o.Overload != nil {
		ov := *s.Overload // fold into a copy: a Stats copied by value still points at the original's block
		ov.Merge(*o.Overload)
		s.Overload = &ov
	}
}

// Merge folds another engine's overload block into s: the gate folds by its
// own rules, into a copy, for the reason Stats.Merge gives.
func (s *OverloadStats) Merge(o OverloadStats) {
	if s.Gate != nil && o.Gate != nil {
		g := *s.Gate
		g.Merge(*o.Gate)
		s.Gate = &g
	}
}

// derive fills the wire-only fields from the ones they report, ages taken at
// now. Every producer of a Stats (Engine.Stats, Fleet.Stats after merging)
// ends with it.
func (s *Stats) derive(now time.Time) {
	s.AvgBatch, s.CacheHitRate = 0, 0
	if s.Batches > 0 {
		s.AvgBatch = float64(s.Roots) / float64(s.Batches)
	}
	if total := s.CacheHits + s.CacheMisses; total > 0 {
		s.CacheHitRate = float64(s.CacheHits) / float64(total)
	}
	s.AvgSwapUS = s.AvgSwap.Microseconds()
	s.CheckpointAgeMS = -1
	if !s.LastCheckpoint.IsZero() {
		s.CheckpointAgeMS = now.Sub(s.LastCheckpoint).Milliseconds()
	}
	s.P50US, s.P99US = s.P50.Microseconds(), s.P99.Microseconds()
}

// Stats snapshots the engine's counters.
func (e *Engine) Stats() Stats {
	s := Stats{
		Nodes:         e.cfg.NumNodes,
		Requests:      e.requests.Load(),
		Batches:       e.batches.Load(),
		Roots:         e.roots.Load(),
		WeightVersion: e.weightVersion.Load(),
		WeightSwaps:   e.weightSwaps.Load(),
		Durable:       e.wlog != nil,
		ReadOnly:      e.readOnly.Load(),
	}
	s.P50, s.P99 = e.lat.percentiles()
	if s.WeightSwaps > 0 {
		s.AvgSwap = time.Duration(e.swapNanos.Load() / int64(s.WeightSwaps))
	}
	if e.cache != nil {
		s.CacheHits, s.CacheStale, s.CacheMisses = e.cache.counts()
	}
	if m := e.memo; m != nil {
		s.MemoHits, s.MemoMisses = m.hits.Load(), m.misses.Load()
		s.MemoEntries, s.MemoResets = m.entries.Load(), m.resets.Load()
	}
	e.ingestMu.Lock() // guards the builder and the WAL's own counters
	s.LiveWatermark, s.HasLiveWatermark = e.gb.LastTime()
	if e.wlog != nil {
		ws := e.wlog.Stats()
		s.WALAppended, s.WALSynced = ws.Appended, ws.Synced
		s.WALSyncs, s.WALSegments = ws.Syncs, ws.Segments
		s.WALFailures = e.walFailures.Load()
		s.Checkpoints = e.ckptWrites.Load()
		s.CheckpointFails = e.ckptFailures.Load()
		s.CheckpointEvents = e.ckptEvents.Load()
		if ns := e.ckptUnix.Load(); ns != 0 {
			s.LastCheckpoint = time.Unix(0, ns)
		}
	}
	e.ingestMu.Unlock()
	if e.gate != nil {
		gs := e.gate.Stats()
		s.Overload = &OverloadStats{Gate: &gs}
	}
	if snap := e.snap.Load(); snap != nil {
		s.SnapshotVersion = snap.Version
		s.Watermark = snap.Watermark
		s.HasWatermark = snap.HasWatermark
		s.Events = snap.NumEvents()
	}
	s.derive(time.Now())
	return s
}
