package serve

import (
	"errors"
	"fmt"
	"time"

	"taser/internal/models"
	"taser/internal/wal"
)

// ErrDurability wraps ingest failures of the durable store: the event was
// NOT admitted — the live graph and feature buffer are exactly as before the
// call, and the engine keeps serving its current state, but no further
// events will be admitted until the engine is restarted over a healthy
// store. The rejected event itself is in the classic indeterminate-commit
// state: it was validated and handed to the WAL before the failure, so a
// later recovery may include it (its bytes may have reached the disk even
// though durability was never confirmed) — like a COMMIT whose
// acknowledgment was lost. Recovery never reorders past it: it appears as
// the recovered stream's tail or not at all.
var ErrDurability = errors.New("serve: durable store failed")

// Durability configures the write-ahead log and checkpointing
// (DESIGN.md §11). The zero value disables durability entirely; setting Dir
// enables it with defaults for the rest.
//
// With durability on, Ingest appends each event to a group-committed WAL
// before admitting it, PublishWeights pairs every accepted weight set with a
// checkpoint of the stream prefix it serves, Close writes a final checkpoint,
// and Recover rebuilds a fresh engine to bitwise equivalence with the
// pre-crash one — up to the unsynced WAL tail, which is bounded by SyncEvery
// events.
type Durability struct {
	Dir             string // WAL + checkpoint directory ("" = durability off)
	SyncEvery       int    // events per WAL group commit (default 64; 1 = fsync every event)
	SegmentBytes    int64  // WAL segment rotation threshold (default 64 MiB)
	CheckpointEvery int    // events between periodic checkpoints (0 = only on weight publication, bootstrap and shutdown)
	FS              wal.FS // file-op layer (default wal.OSFS; tests inject wal.FaultFS)
}

// RecoveryReport summarizes what Recover rebuilt — an engine's stream, or a
// fleet's (Fleet.Recover), whose report also carries one per shard.
type RecoveryReport struct {
	CheckpointEvents int           // events restored from the newest valid checkpoint
	ReplayedEvents   int           // events replayed from the WAL suffix past the checkpoint
	HealedEvents     int           // checkpointed events re-appended to a WAL that lost its unsynced tail
	WeightVersion    uint64        // weight version restored (1 = the pretrained weights the engine was built with)
	Watermark        float64       // ingest watermark after recovery (meaningful iff HasWatermark)
	HasWatermark     bool          // false when the durable store held no events
	Duration         time.Duration // wall time of the whole recovery

	// Fleet only (zero for a single engine): the event counts above then sum
	// the shards', so they include Teed cross-shard copies.
	Teed   uint64
	Shards []RecoveryReport
}

// Recover rebuilds the engine's stream from the durable store: the newest
// valid checkpoint is bulk-loaded, the WAL suffix past it is replayed, a
// snapshot is published, and the checkpointed weight set (when present) is
// republished so the scheduler applies it before the first micro-batch. The
// result is bitwise-equivalent to the pre-crash engine over the recovered
// prefix: same events, same adjacency, same edge features, same watermark,
// same weights — so the same requests score identically.
//
// Recover must run on a freshly constructed engine (durability configured,
// nothing ingested). An empty store is the fresh-start path: Recover returns
// a zero report and the engine starts from scratch. At most the unsynced WAL
// tail — bounded by Durability.SyncEvery events — is lost relative to the
// crashed process.
func (e *Engine) Recover() (RecoveryReport, error) {
	var rep RecoveryReport
	start := time.Now()
	if e.wlog == nil {
		return rep, fmt.Errorf("serve: Recover requires Config.Durability.Dir")
	}
	ckWeights, err := e.recoverLocked(&rep)
	if err != nil {
		return rep, err
	}
	rep.WeightVersion = 1
	if ckWeights != nil {
		// Core publication only: re-checkpointing the state just restored
		// would be a no-op write.
		if err := e.publishWeightsCore(ckWeights); err != nil {
			return rep, fmt.Errorf("serve: republishing checkpointed weights: %w", err)
		}
		rep.WeightVersion = ckWeights.Version
	}
	rep.Duration = time.Since(start)
	return rep, nil
}

// recoverLocked performs the stream-rebuilding half of Recover under the
// ingest lock and returns the checkpointed weight set (nil when the store
// held none).
func (e *Engine) recoverLocked(rep *RecoveryReport) (*models.WeightSet, error) {
	fsys, dir := e.cfg.Durability.FS, e.cfg.Durability.Dir
	e.ingestMu.Lock()
	defer e.ingestMu.Unlock()
	if e.gb.NumEvents() != 0 {
		return nil, fmt.Errorf("serve: Recover requires a fresh engine (%d events already ingested)", e.gb.NumEvents())
	}
	ck, err := wal.LatestCheckpoint(fsys, dir)
	if err != nil {
		return nil, err
	}
	var ckWeights *models.WeightSet
	var ckRow func(int) []float64
	if ck != nil {
		ckRow = func(i int) []float64 { return ck.Feats[i*ck.EdgeDim : (i+1)*ck.EdgeDim] }
		if err := e.admitRunLocked(ck.Events, ckRow, true); err != nil {
			return nil, fmt.Errorf("serve: checkpoint: %w", err)
		}
		rep.CheckpointEvents = len(ck.Events)
		ckWeights = ck.Weights
	}

	// Heal a WAL that lags the checkpoint: the checkpoint survived but the
	// log's unsynced tail died with the process. Re-append the checkpointed
	// events the log is missing so record i == event i holds again for every
	// future append.
	from := uint64(rep.CheckpointEvents)
	if onLog := e.wlog.Seq(); onLog < from {
		for i := int(onLog); i < rep.CheckpointEvents; i++ {
			ev := ck.Events[i]
			if err := e.wlog.Append(ev.Src, ev.Dst, ev.Time, ckRow(i)); err != nil {
				return nil, fmt.Errorf("%w: healing WAL record %d: %w", ErrDurability, i, err)
			}
			rep.HealedEvents++
		}
		if err := e.wlog.Sync(); err != nil {
			return nil, fmt.Errorf("%w: healing WAL: %w", ErrDurability, err)
		}
	}

	// Replay the WAL suffix the checkpoint does not cover.
	replayed, err := wal.Replay(fsys, dir, from, func(seq uint64, r wal.Record) error {
		if err := e.admitLocked(r.Src, r.Dst, r.T, r.Feat, true); err != nil {
			return fmt.Errorf("serve: WAL record %d: %w", seq, err)
		}
		return nil
	})
	rep.ReplayedEvents = int(replayed)
	if err != nil {
		return nil, err
	}
	e.publishLocked()
	rep.Watermark, rep.HasWatermark = e.gb.LastTime()
	return ckWeights, nil
}

// checkpointNow captures a consistent (events, features, watermark, weights)
// cut under the ingest lock and writes it durably outside it. The WAL is
// synced first so the log always covers at least the checkpointed prefix
// (Recover heals the rare inversion where a sticky-failed WAL could not be).
// Failures are counted in Stats rather than returned: the engine keeps
// serving and the previous checkpoint keeps protecting it — a checkpoint is
// an optimization of recovery time, the WAL is the source of truth.
func (e *Engine) checkpointNow() {
	e.ckptMu.Lock()
	defer e.ckptMu.Unlock()

	e.ingestMu.Lock()
	_ = e.wlog.Sync()
	g, _ := e.gb.Snapshot()
	events := g.Events
	w := len(events) * e.cfg.EdgeDim
	feats := e.edgeFeat[:w:w]
	wm, hasWM := e.gb.LastTime()
	e.ingestMu.Unlock()

	ck := &wal.Checkpoint{
		Events: events, Feats: feats, EdgeDim: e.cfg.EdgeDim,
		Watermark: wm, HasWatermark: hasWM,
		Weights: e.weights.Load(), // newest published set (nil = pretrained)
	}
	if err := wal.WriteCheckpoint(e.cfg.Durability.FS, e.cfg.Durability.Dir, ck); err != nil {
		e.ckptFailures.Add(1)
		return
	}
	e.ckptWrites.Add(1)
	e.ckptEvents.Store(uint64(len(events)))
	e.ckptUnix.Store(time.Now().UnixNano())
}
