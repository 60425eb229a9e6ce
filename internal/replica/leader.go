// Package replica is TASER's log-shipping replication subsystem: read
// replicas that tail a leader's write-ahead log over HTTP and rebuild the
// leader's serving state bitwise, plus the promotion machinery that turns a
// follower into a writable leader when the old one dies (DESIGN.md §12).
//
// The design leans entirely on the PR 6 durability contract. The leader's
// WAL already is the replication stream — record i is event i — so the
// leader side is just an HTTP face over the log directory: a follower
// bootstraps from the newest shipped checkpoint (the same file recovery
// bulk-loads locally) and then tails the record stream with the exact
// on-disk framing (wal.AppendRecord / wal.StreamReader), CRC32C per record.
// Every replicated event is applied through the identical
// validate→local-WAL→admit path leader ingest uses (serve.Engine.Apply), so
// at every applied sequence number the follower's watermark, adjacency,
// edge-feature bytes and served scores equal the leader's bitwise — the
// crash-recovery equivalence property, held across a lossy network instead
// of a crashed disk.
//
// Torn, duplicated or corrupted transport chunks are absorbed by the same
// machinery that absorbs torn segment tails: a record either passes its
// checksum at the expected sequence and is applied, or the poll is abandoned
// and re-requested from the follower's applied sequence. The follower never
// applies a record out of order, so its state is always a verbatim prefix of
// the leader's log. A node re-joining with local state must prove its stream
// really is such a prefix before tailing: the trailing records of its applied
// stream are byte-compared against the leader's log at the join point, so a
// diverged history (a promoted node's own writes, a leader that lost its
// tail) is refused with ErrDiverged instead of silently grafted onto.
package replica

import (
	"fmt"
	"io"
	"net/http"
	"strconv"

	"taser/internal/serve"
	"taser/internal/wal"
)

// Header names of the replication wire protocol. Values are decimal
// sequence numbers / versions.
const (
	hdrFrom    = "X-Taser-Repl-From"    // first sequence number in the response body
	hdrSeq     = "X-Taser-Repl-Seq"     // leader's synced sequence at response time
	hdrWeights = "X-Taser-Repl-Weights" // leader's applied weight version
	hdrEvents  = "X-Taser-Repl-Events"  // events covered by a shipped checkpoint
)

// Leader serves an engine's durable log to followers:
//
//	GET /v1/repl/wal?from=N   → framed records [N, synced) (wal.AppendRecord
//	                            framing; at most MaxRecords per response;
//	                            &max=M caps the response further — the join
//	                            verification fetch asks for exactly the
//	                            records it will compare)
//	GET /v1/repl/checkpoint   → the newest valid checkpoint file, verbatim
//	GET /v1/repl/status       → JSON sequence/checkpoint/weight summary
//
// Any durable engine can serve these — a follower mounts them too, so its
// own (prefix) log is shippable to chained replicas and, after promotion,
// to the demoted old leader catching back up.
type Leader struct {
	e *serve.Engine
	// MaxRecords bounds one /wal response (default 16384): a far-behind
	// follower catches up over several polls instead of one giant response.
	MaxRecords int
}

// NewLeader wraps a durable engine. An engine without a WAL cannot ship its
// log and is refused.
func NewLeader(e *serve.Engine) (*Leader, error) {
	if _, _, ok := e.Durable(); !ok {
		return nil, fmt.Errorf("replica: leader requires a durable engine (serve.Durability.Dir)")
	}
	return &Leader{e: e, MaxRecords: 16384}, nil
}

// Handler returns the replication endpoints. Mount it on the serving mux or
// a dedicated replication listener.
func (l *Leader) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/repl/wal", l.serveWAL)
	mux.HandleFunc("GET /v1/repl/checkpoint", l.serveCheckpoint)
	mux.HandleFunc("GET /v1/repl/status", l.serveStatus)
	return mux
}

// serveWAL streams the synced record suffix past ?from. Only synced records
// are shipped: their bytes are fully on disk before the synced counter
// advances, so a concurrent group commit can never hand a follower a
// half-written record. The response may be empty (the follower is caught
// up) — the follower polls again after its interval.
func (l *Leader) serveWAL(w http.ResponseWriter, r *http.Request) {
	fsys, dir, _ := l.e.Durable()
	var from uint64
	if q := r.URL.Query().Get("from"); q != "" {
		v, err := strconv.ParseUint(q, 10, 64)
		if err != nil {
			httpErr(w, http.StatusBadRequest, fmt.Errorf("bad from %q: %w", q, err))
			return
		}
		from = v
	}
	st := l.e.Stats()
	synced := st.WALSynced
	if from > synced {
		// The follower claims records this log never synced: it diverged
		// (e.g. it was promoted, or this leader lost its tail in a crash).
		w.Header().Set(hdrSeq, strconv.FormatUint(synced, 10))
		httpErr(w, http.StatusConflict,
			fmt.Errorf("replica: follower at seq %d is ahead of the log (synced %d): diverged", from, synced))
		return
	}
	until := synced
	if max := uint64(l.MaxRecords); max > 0 && until-from > max {
		until = from + max
	}
	if q := r.URL.Query().Get("max"); q != "" {
		v, err := strconv.ParseUint(q, 10, 64)
		if err != nil {
			httpErr(w, http.StatusBadRequest, fmt.Errorf("bad max %q: %w", q, err))
			return
		}
		if until-from > v {
			until = from + v
		}
	}
	w.Header().Set(hdrFrom, strconv.FormatUint(from, 10))
	w.Header().Set(hdrSeq, strconv.FormatUint(synced, 10))
	w.Header().Set(hdrWeights, strconv.FormatUint(st.WeightVersion, 10))
	w.Header().Set("Content-Type", "application/octet-stream")
	if from == until {
		return // caught up: headers only
	}
	tail, err := wal.TailFrom(fsys, dir, from)
	if err != nil {
		// Headers are not yet written (no body bytes): still safe to error.
		httpErr(w, http.StatusInternalServerError, err)
		return
	}
	defer tail.Close()
	buf := make([]byte, 0, 4096)
	for {
		seq, rec, err := tail.Next()
		if err == io.EOF || err != nil || seq >= until {
			// EOF before until should not happen (synced records are on
			// disk); a decode error mid-stream truncates the response — the
			// follower sees a torn chunk and re-polls, which is exactly the
			// fault model it already survives.
			return
		}
		buf = wal.AppendRecord(buf[:0], rec.Src, rec.Dst, rec.T, rec.Feat)
		if _, err := w.Write(buf); err != nil {
			return // follower went away mid-stream
		}
	}
}

// serveCheckpoint ships the newest valid checkpoint file verbatim; 204 when
// the store has none yet (the follower then tails the log from sequence 0).
func (l *Leader) serveCheckpoint(w http.ResponseWriter, r *http.Request) {
	fsys, dir, _ := l.e.Durable()
	data, events, err := wal.NewestCheckpointBytes(fsys, dir)
	if err != nil {
		httpErr(w, http.StatusInternalServerError, err)
		return
	}
	if data == nil {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	w.Header().Set(hdrEvents, strconv.Itoa(events))
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(data)
}

// serveStatus reports the sequence state a follower needs to plan catch-up
// (and the lag denominator operators read off the leader).
func (l *Leader) serveStatus(w http.ResponseWriter, r *http.Request) {
	st := l.e.Stats()
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, `{"seq":%d,"synced":%d,"segments":%d,"checkpoint_events":%d,"weight_version":%d,"edge_dim":%d,"writable":%t}`+"\n",
		st.WALAppended, st.WALSynced, st.WALSegments, st.CheckpointEvents, st.WeightVersion, l.e.Config().EdgeDim, l.e.Writable())
}

func httpErr(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	fmt.Fprintf(w, "{\"error\":%q}\n", err.Error())
}
