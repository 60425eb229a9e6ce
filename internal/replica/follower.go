package replica

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"taser/internal/serve"
	"taser/internal/tensor"
	"taser/internal/tgraph"
	"taser/internal/wal"
)

// ErrDiverged reports a follower whose applied stream is not a prefix of the
// leader's log: either it is longer than the leader's synced sequence, or the
// join-point verification found a record whose bytes differ (typically this
// node was promoted and wrote, or the leader restarted from an older store).
// Replication cannot merge histories — the operator must restart the follower
// over a fresh (or leader-prefix) durable directory.
var ErrDiverged = errors.New("replica: follower stream diverged from leader log")

// ErrIncompatible reports a configuration mismatch that makes every record of
// the leader's stream unappliable (today: a different edge-feature width).
// It is permanent — retrying cannot help — so catch-up fails fast instead of
// cycling through its retry budget.
var ErrIncompatible = errors.New("replica: follower engine incompatible with leader stream")

// ErrStalled reports a record the local engine rejected maxApplyFails polls
// in a row. A rejection at the same sequence can never heal by retrying (the
// record's bytes are checksum-verified, so the stream is not at fault);
// treating it as transient would retry forever while lag grows silently.
var ErrStalled = errors.New("replica: replication stalled on a persistently rejected record")

// joinVerifyRecords is how many trailing records of a re-joining node's
// applied stream are byte-compared against the leader's log before tailing
// starts. Length alone cannot prove the prefix property: an ex-leader whose
// divergent tail the new leader has since outgrown passes every length check
// while carrying conflicting records. Divergent histories fork at a point and
// differ from there on, so comparing the trailing records catches any
// realistic fork; a window (rather than just the single join record) also
// covers the pathological case of a fork whose newest record coincides.
const joinVerifyRecords = 16

// maxApplyFails is how many consecutive polls may fail applying the same
// sequence before the follower transitions to StateFailed with ErrStalled.
const maxApplyFails = 5

// State is a follower's lifecycle position.
type State int32

const (
	// StateCatchup: bootstrapping from the shipped checkpoint and the first
	// log polls; not yet serving within the lag bound.
	StateCatchup State = iota
	// StateTailing: steady-state log shipping; read-only serving.
	StateTailing
	// StatePromoted: this node sealed its prefix and became writable; the
	// replication loop has exited.
	StatePromoted
	// StateFailed: an unrecoverable error (divergence, local WAL failure)
	// stopped replication; the node keeps serving its read-only prefix.
	StateFailed
	// StateClosed: Close was called.
	StateClosed
)

func (s State) String() string {
	switch s {
	case StateCatchup:
		return "catchup"
	case StateTailing:
		return "tailing"
	case StatePromoted:
		return "promoted"
	case StateFailed:
		return "failed"
	case StateClosed:
		return "closed"
	}
	return fmt.Sprintf("state(%d)", int32(s))
}

// FollowerConfig configures StartFollower.
type FollowerConfig struct {
	Engine *serve.Engine // local engine; made read-only until promotion
	Leader string        // leader base URL, e.g. "http://10.0.0.1:8191"

	Client       *http.Client  // default: http.Client{Timeout: 30s}
	PollInterval time.Duration // pause between empty polls (default 200ms)
	LagThreshold uint64        // Healthy() bound on synced-minus-applied (default 4096)
	// FailoverAfter > 0 arms automatic promotion: if every poll fails to
	// reach the leader for this long, the follower seals and takes over.
	// 0 leaves promotion manual (Promote).
	FailoverAfter time.Duration
}

// Follower replicates a leader's stream into a local engine and serves
// reads from it. Writes are rejected (serve.ErrReadOnly → HTTP 421) until
// promotion. The local engine may itself be durable — then every applied
// record also lands in the follower's own WAL, so a promoted follower is
// immediately a first-class leader and a crashed follower recovers locally
// instead of re-shipping the whole stream.
type Follower struct {
	cfg    FollowerConfig
	cancel context.CancelFunc
	done   chan struct{}

	mu      sync.Mutex // serializes promotion/close finalization
	failErr error      // set once when state becomes StateFailed

	state       atomic.Int32
	applied     atomic.Uint64 // records applied to the local engine
	leaderSeq   atomic.Uint64 // leader's synced seq at last successful poll
	lastContact atomic.Int64  // unix nanos of the last response from the leader
	polls       atomic.Uint64 // /wal polls attempted
	faultPolls  atomic.Uint64 // polls cut short by torn/corrupt/gapped chunks
	dupRecords  atomic.Uint64 // records skipped as duplicates (seq < applied)
	weightsSeen atomic.Uint64 // newest leader weight version already fetched

	// Stuck-apply tracking, touched only by the loop goroutine.
	stalledSeq   uint64 // sequence of the most recent apply rejection
	stalledFails int    // consecutive polls rejected at stalledSeq
}

// StartFollower catches the engine up from the leader's shipped checkpoint,
// then starts the background tail loop. The engine is flipped read-only
// before the first record is applied and stays so until promotion. The
// engine must be fresh or a recovered prefix of this leader's stream: a
// non-empty engine's trailing records are byte-verified against the leader's
// log first, and a stream that is longer than the leader's synced log or
// differs at the join point fails with ErrDiverged.
func StartFollower(cfg FollowerConfig) (*Follower, error) {
	if cfg.Engine == nil {
		return nil, fmt.Errorf("replica: FollowerConfig.Engine is required")
	}
	if cfg.Leader == "" {
		return nil, fmt.Errorf("replica: FollowerConfig.Leader is required")
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 30 * time.Second}
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 200 * time.Millisecond
	}
	if cfg.LagThreshold == 0 {
		cfg.LagThreshold = 4096
	}
	ctx, cancel := context.WithCancel(context.Background())
	f := &Follower{cfg: cfg, cancel: cancel, done: make(chan struct{})}
	f.state.Store(int32(StateCatchup))
	wasWritable := cfg.Engine.Writable()
	cfg.Engine.SetWritable(false)
	if err := f.catchUp(ctx); err != nil {
		cancel()
		close(f.done)
		// Hand the engine back with the caller's writability policy intact —
		// a caller that deliberately parked it read-only stays read-only.
		cfg.Engine.SetWritable(wasWritable)
		return nil, err
	}
	go f.loop(ctx)
	return f, nil
}

// catchupAttempts bounds the initial checkpoint catch-up; attempts are one
// PollInterval apart.
const catchupAttempts = 3

// catchUp bootstraps from the leader's newest checkpoint: one bulk
// ApplyPrefix replaces what would be thousands of per-record polls, exactly
// as local recovery bulk-loads a checkpoint before replaying the WAL
// suffix. Transient failures (a leader mid-restart, a killed connection)
// are retried; divergence and incompatibility are not.
func (f *Follower) catchUp(ctx context.Context) error {
	var err error
	for attempt := 0; attempt < catchupAttempts; attempt++ {
		if attempt > 0 {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(f.cfg.PollInterval):
			}
		}
		if err = f.catchUpOnce(ctx); err == nil ||
			errors.Is(err, ErrDiverged) || errors.Is(err, ErrIncompatible) {
			return err
		}
	}
	return fmt.Errorf("replica: checkpoint catch-up failed after %d attempts: %w", catchupAttempts, err)
}

func (f *Follower) catchUpOnce(ctx context.Context) error {
	e := f.cfg.Engine
	applied := uint64(e.NumEvents())
	st, err := f.fetchStatus(ctx)
	if err != nil {
		return err
	}
	if st.EdgeDim != e.Config().EdgeDim {
		return fmt.Errorf("%w: leader streams edge-feature width %d, engine is configured for %d",
			ErrIncompatible, st.EdgeDim, e.Config().EdgeDim)
	}
	if applied > st.Synced {
		return fmt.Errorf("%w: %d events applied locally, leader synced %d", ErrDiverged, applied, st.Synced)
	}
	if err := f.verifyJoin(ctx, applied); err != nil {
		return err
	}
	f.leaderSeq.Store(st.Synced)
	f.lastContact.Store(time.Now().UnixNano())
	if uint64(st.CheckpointEvents) <= applied {
		f.applied.Store(applied)
		return nil // the log tail covers the rest; no checkpoint needed
	}
	ck, err := f.fetchCheckpoint(ctx)
	if err != nil {
		return err
	}
	if ck == nil || uint64(len(ck.Events)) <= applied {
		// The checkpoint regressed between /status and /checkpoint (e.g. the
		// newest file was replaced); the log tail will cover the gap.
		f.applied.Store(applied)
		return nil
	}
	var feats *tensor.Matrix
	if ck.EdgeDim > 0 {
		rows := len(ck.Events) - int(applied)
		feats = tensor.FromSlice(rows, ck.EdgeDim, ck.Feats[int(applied)*ck.EdgeDim:])
	}
	if err := e.ApplyPrefix(ck.Events[applied:], feats); err != nil {
		return fmt.Errorf("replica: applying checkpoint suffix: %w", err)
	}
	f.applied.Store(uint64(e.NumEvents()))
	f.publishWeights(ck)
	return nil
}

// verifyJoin proves the locally applied stream joins the leader's log by
// content, not just length: the last min(applied, joinVerifyRecords) records
// are re-fetched from the leader and compared bitwise (endpoints, timestamp
// bits, feature bits) against the local stream. Any mismatch is ErrDiverged —
// the "applied ≤ synced" length check alone would let an ex-leader whose
// conflicting tail the new leader has since outgrown re-join and serve a
// permanently divergent store. A short or torn verification response is
// returned as a transient error (catchUp retries it).
func (f *Follower) verifyJoin(ctx context.Context, applied uint64) error {
	if applied == 0 {
		return nil // an empty stream is trivially a prefix
	}
	n := uint64(joinVerifyRecords)
	if applied < n {
		n = applied
	}
	from := applied - n
	return f.get(ctx, fmt.Sprintf("/v1/repl/wal?from=%d&max=%d", from, n), func(resp *http.Response) error {
		snap := f.cfg.Engine.PublishSnapshot()
		if uint64(snap.NumEvents()) < applied {
			return fmt.Errorf("replica: snapshot covers %d events, %d applied", snap.NumEvents(), applied)
		}
		sr := wal.NewStreamReader(resp.Body)
		for i := uint64(0); i < n; i++ {
			rec, rerr := sr.Next()
			if rerr != nil {
				return fmt.Errorf("replica: join verification read %d/%d records: %w", i, n, rerr)
			}
			seq := from + i
			ev := snap.Graph.Events[seq]
			if !recordEqual(rec, ev, snap.EdgeFeat.Row(int(seq))) {
				return fmt.Errorf("%w: record %d differs from the leader's log (local %d→%d t=%v, leader %d→%d t=%v)",
					ErrDiverged, seq, ev.Src, ev.Dst, ev.Time, rec.Src, rec.Dst, rec.T)
			}
		}
		return nil
	})
}

// get issues one GET of path against the leader and hands a 200 response to
// read; any other answer is a *statusError. However read returns, the body
// is drained (so the connection is reused) and closed.
func (f *Follower) get(ctx context.Context, path string, read func(*http.Response) error) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.cfg.Leader+path, nil)
	if err != nil {
		return err
	}
	resp, err := f.cfg.Client.Do(req)
	if err != nil {
		return err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain for keep-alive
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return &statusError{path: path, status: resp.Status, code: resp.StatusCode}
	}
	return read(resp)
}

// statusError is a leader answer other than 200 OK — which still proves the
// leader is alive.
type statusError struct {
	path, status string
	code         int
}

func (e *statusError) Error() string {
	return fmt.Sprintf("replica: leader returned %s for %s", e.status, e.path)
}

// recordEqual compares a leader log record with a local event bitwise —
// float equality is on the bits, so NaNs and signed zeros compare the way
// the bitwise-equivalence property demands.
func recordEqual(rec wal.Record, ev tgraph.Event, feat []float64) bool {
	if rec.Src != ev.Src || rec.Dst != ev.Dst ||
		math.Float64bits(rec.T) != math.Float64bits(ev.Time) || len(rec.Feat) != len(feat) {
		return false
	}
	for i, v := range feat {
		if math.Float64bits(rec.Feat[i]) != math.Float64bits(v) {
			return false
		}
	}
	return true
}

// loop is the tail loop: poll the leader's log, apply, repeat. It exits on
// Close, on promotion (manual or automatic failover), or on a fatal error.
func (f *Follower) loop(ctx context.Context) {
	defer close(f.done)
	f.state.Store(int32(StateTailing))
	for {
		n, contact, err := f.pollOnce(ctx)
		if ctx.Err() != nil {
			return
		}
		now := time.Now()
		if contact {
			f.lastContact.Store(now.UnixNano())
		}
		switch {
		case err != nil && (errors.Is(err, ErrDiverged) || errors.Is(err, ErrStalled) ||
			errors.Is(err, serve.ErrDurability)):
			// Divergence cannot heal; a sticky local WAL failure means no
			// record will ever be admitted again; a record the engine keeps
			// rejecting will keep being rejected. Stop and keep serving the
			// consistent read-only prefix.
			f.fail(err)
			return
		case err == nil && n > 0:
			continue // records flowed; drain the backlog without sleeping
		}
		if f.cfg.FailoverAfter > 0 && now.Sub(time.Unix(0, f.lastContact.Load())) >= f.cfg.FailoverAfter {
			// Leader declared dead: take over. The sealed prefix is exactly
			// the synced records the leader shipped, so the hand-off loses at
			// most the leader's unsynced tail (< its SyncEvery).
			f.finalizePromotion()
			return
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(f.cfg.PollInterval):
		}
	}
}

// pollOnce requests the log suffix past the follower's applied sequence and
// applies what survives validation. Returns the number of records applied
// and whether the leader was reached at all (fault-injected torn or corrupt
// chunks count as contact — the leader is alive, the transport lied).
//
// Fault handling is positional: record i of a response that started at
// sequence s carries sequence s+i. A record below the applied counter is a
// duplicated chunk — skipped. A record above it is a gap (an earlier record
// was consumed by corruption) — the rest of the response is useless and the
// poll is abandoned. A checksum failure or truncation abandons the poll
// likewise. Every abandoned poll restarts from the applied counter, so
// faults cost retries, never consistency.
//
// Positional sequencing bounds the fault model: frames carry no sequence
// number of their own, so dup-tolerance covers whole-response replays (a
// rewound from cursor, a resent response) — the request-granularity replays
// HTTP intermediaries actually produce. A hypothetical intermediary that
// duplicated or reordered an individual frame *inside* one response body
// would pass the CRC at the wrong position and be applied at the wrong
// sequence; that failure is outside the model (DESIGN.md §12).
func (f *Follower) pollOnce(ctx context.Context) (appliedN int, contact bool, err error) {
	e := f.cfg.Engine
	f.polls.Add(1)
	from := f.applied.Load()
	var weights string
	err = f.get(ctx, "/v1/repl/wal?from="+strconv.FormatUint(from, 10), func(resp *http.Response) error {
		contact = true
		if v, perr := strconv.ParseUint(resp.Header.Get(hdrSeq), 10, 64); perr == nil {
			if prev := f.leaderSeq.Load(); v < prev {
				// A synced sequence never regresses on one store (recovery
				// keeps every synced record), so the log behind this URL was
				// replaced with a different — potentially conflicting — history.
				return fmt.Errorf("%w: leader synced sequence regressed %d → %d", ErrDiverged, prev, v)
			}
			f.leaderSeq.Store(v)
		}
		firstSeq := from
		if v, perr := strconv.ParseUint(resp.Header.Get(hdrFrom), 10, 64); perr == nil {
			firstSeq = v
		}
		sr := wal.NewStreamReader(resp.Body)
		for i := 0; ; i++ {
			rec, rerr := sr.Next()
			if rerr == io.EOF {
				break
			}
			if rerr != nil {
				// Torn (truncated mid-record) or corrupt (checksum) chunk: the
				// validated prefix already applied stands; re-poll for the rest.
				f.faultPolls.Add(1)
				break
			}
			seq := firstSeq + uint64(i)
			cur := f.applied.Load()
			if seq < cur {
				f.dupRecords.Add(1)
				continue
			}
			if seq > cur {
				f.faultPolls.Add(1) // gap: an expected record was consumed by a fault
				break
			}
			if aerr := e.Apply(rec.Src, rec.Dst, rec.T, rec.Feat); aerr != nil {
				// Transient by default (a checkpoint write racing the apply),
				// but the same sequence rejected poll after poll can never
				// heal — escalate to ErrStalled so the loop fails instead of
				// spinning.
				if seq == f.stalledSeq {
					f.stalledFails++
				} else {
					f.stalledSeq, f.stalledFails = seq, 1
				}
				if f.stalledFails >= maxApplyFails {
					return fmt.Errorf("%w: record %d rejected %d polls in a row: %w",
						ErrStalled, seq, f.stalledFails, aerr)
				}
				return fmt.Errorf("replica: applying record %d: %w", seq, aerr)
			}
			f.stalledFails = 0
			f.applied.Add(1)
			appliedN++
		}
		weights = resp.Header.Get(hdrWeights)
		return nil
	})
	var se *statusError
	if errors.As(err, &se) {
		contact = true
		if se.code == http.StatusConflict {
			err = fmt.Errorf("%w: leader refused seq %d", ErrDiverged, from)
		}
	}
	if err == nil {
		f.maybeFetchWeights(ctx, weights)
	}
	return appliedN, contact, err
}

// maybeFetchWeights re-fetches the leader checkpoint when its advertised
// weight version is ahead of anything this follower has published. Weights
// ride checkpoints (every accepted publication writes one, DESIGN.md §11),
// so the newest checkpoint always carries the advertised version or newer.
func (f *Follower) maybeFetchWeights(ctx context.Context, hdr string) {
	v, err := strconv.ParseUint(hdr, 10, 64)
	if err != nil || v <= f.weightsSeen.Load() || v <= f.cfg.Engine.WeightVersion() {
		return
	}
	ck, err := f.fetchCheckpoint(ctx)
	if err != nil || ck == nil {
		return // transient; the next poll's header will trigger a retry
	}
	f.publishWeights(ck)
}

// publishWeights publishes a checkpoint's weight set locally. "Not newer"
// rejections are expected crossings (another path already published it) and
// are not errors.
func (f *Follower) publishWeights(ck *wal.Checkpoint) {
	if ck.Weights == nil {
		return
	}
	if v := ck.Weights.Version; v > f.weightsSeen.Load() {
		f.weightsSeen.Store(v)
	}
	_ = f.cfg.Engine.PublishWeights(ck.Weights)
}

type leaderStatus struct {
	Seq              uint64 `json:"seq"`
	Synced           uint64 `json:"synced"`
	CheckpointEvents int    `json:"checkpoint_events"`
	WeightVersion    uint64 `json:"weight_version"`
	EdgeDim          int    `json:"edge_dim"`
	Writable         bool   `json:"writable"`
}

func (f *Follower) fetchStatus(ctx context.Context) (st leaderStatus, err error) {
	err = f.get(ctx, "/v1/repl/status", func(resp *http.Response) error {
		return json.NewDecoder(resp.Body).Decode(&st)
	})
	return st, err
}

// fetchCheckpoint downloads and decodes the leader's newest checkpoint
// (nil when the leader has none yet: 204 No Content).
func (f *Follower) fetchCheckpoint(ctx context.Context) (ck *wal.Checkpoint, err error) {
	err = f.get(ctx, "/v1/repl/checkpoint", func(resp *http.Response) error {
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			return fmt.Errorf("replica: reading shipped checkpoint: %w", err)
		}
		// DecodeCheckpoint checksums every section, so a torn or corrupted
		// shipment is rejected here, never applied.
		if ck, err = wal.DecodeCheckpoint(data); err != nil {
			return fmt.Errorf("replica: shipped checkpoint: %w", err)
		}
		return nil
	})
	var se *statusError
	if errors.As(err, &se) && se.code == http.StatusNoContent {
		return nil, nil
	}
	return ck, err
}

// Promote stops replication and makes the local engine writable: the
// applied prefix is sealed with a checkpoint (when the engine is durable)
// and the read-only gate lifts. Safe to call at any point after
// StartFollower; idempotent.
func (f *Follower) Promote() {
	f.cancel()
	<-f.done
	f.finalizePromotion()
}

// finalizePromotion is the promotion commit point, shared by Promote and
// the loop's automatic failover (which must not wait on its own exit).
func (f *Follower) finalizePromotion() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if State(f.state.Load()) == StatePromoted {
		return
	}
	if _, _, ok := f.cfg.Engine.Durable(); ok {
		// Seal: checkpoint the applied prefix so the new leader's store
		// covers everything it will serve before the first write lands.
		_ = f.cfg.Engine.Checkpoint()
	}
	f.cfg.Engine.SetWritable(true)
	f.state.Store(int32(StatePromoted))
}

// fail records a terminal replication error; the engine keeps serving its
// read-only prefix.
func (f *Follower) fail(err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failErr = err
	f.state.Store(int32(StateFailed))
}

// Close stops the replication loop without promoting. The engine is left
// read-only (the caller owns its shutdown).
func (f *Follower) Close() {
	f.cancel()
	<-f.done
	f.mu.Lock()
	defer f.mu.Unlock()
	if s := State(f.state.Load()); s != StatePromoted && s != StateFailed {
		f.state.Store(int32(StateClosed))
	}
}

// Status is a point-in-time snapshot of the replication loop.
type Status struct {
	State       State
	Applied     uint64    // records applied to the local engine
	LeaderSeq   uint64    // leader's synced sequence at last contact
	Lag         uint64    // LeaderSeq - Applied (0 when caught up or ahead)
	LastContact time.Time // zero = never reached the leader
	Polls       uint64
	FaultPolls  uint64 // polls cut short by torn/corrupt/gapped chunks
	DupRecords  uint64 // duplicated records skipped
	Err         error  // terminal error when State == StateFailed
}

func (f *Follower) Status() Status {
	st := Status{
		State:      State(f.state.Load()),
		Applied:    f.applied.Load(),
		LeaderSeq:  f.leaderSeq.Load(),
		Polls:      f.polls.Load(),
		FaultPolls: f.faultPolls.Load(),
		DupRecords: f.dupRecords.Load(),
	}
	if st.LeaderSeq > st.Applied {
		st.Lag = st.LeaderSeq - st.Applied
	}
	if ns := f.lastContact.Load(); ns != 0 {
		st.LastContact = time.Unix(0, ns)
	}
	f.mu.Lock()
	st.Err = f.failErr
	f.mu.Unlock()
	return st
}

// Healthy is the /v1/healthz readiness predicate (serve.HandlerConfig.Health):
// nil when this node can serve its role — a tailing follower within the lag
// bound and in recent contact with the leader, or a promoted leader.
func (f *Follower) Healthy() error {
	st := f.Status()
	switch st.State {
	case StatePromoted:
		return nil
	case StateTailing:
		if st.Lag > f.cfg.LagThreshold {
			return fmt.Errorf("replica: lag %d exceeds threshold %d", st.Lag, f.cfg.LagThreshold)
		}
		if stale := time.Since(st.LastContact); stale > f.staleBound() {
			return fmt.Errorf("replica: no leader contact for %v", stale.Round(time.Millisecond))
		}
		return nil
	case StateFailed:
		return fmt.Errorf("replica: replication failed: %w", st.Err)
	default:
		return fmt.Errorf("replica: not ready (%v)", st.State)
	}
}

// staleBound is how long the follower may go without leader contact before
// reporting unhealthy: the failover deadline when armed, else a few polls.
func (f *Follower) staleBound() time.Duration {
	if f.cfg.FailoverAfter > 0 {
		return f.cfg.FailoverAfter
	}
	return 5 * f.cfg.PollInterval
}

// ReplicationStats is the serve.HandlerConfig.Replication hook: the
// replication block of /v1/stats.
func (f *Follower) ReplicationStats() serve.ReplicationStats {
	st := f.Status()
	role := "follower"
	if st.State == StatePromoted {
		role = "leader"
	}
	return serve.ReplicationStats{
		Role: role, State: st.State.String(),
		Applied: st.Applied, LeaderSeq: st.LeaderSeq, Lag: st.Lag,
		Polls: st.Polls, FaultPolls: st.FaultPolls, DupRecords: st.DupRecords,
	}
}
