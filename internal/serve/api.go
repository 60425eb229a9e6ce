package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"time"

	"taser/internal/overload"
)

// Server is the serving surface the HTTP layer mounts: implemented by both
// the single *Engine and the sharded *Fleet, so every caller of NewHandler
// (cmd/taser-serve, the HTTP load generator, tests) serves either shape
// unchanged. The unexported stats method keeps the set closed: the payload
// schema (Stats, FleetStats) is this package's contract, not an extension
// point.
type Server interface {
	Ingest(src, dst int32, t float64, feat []float64) error
	PredictLink(src, dst int32, t float64) (PredictResult, error)
	Embed(node int32, t float64) (EmbedResult, error)
	Watermark() (t float64, ok bool)
	NumEvents() int
	Writable() bool
	DurableErr() error
	// wireStats returns the value /v1/stats marshals — a Stats or a
	// FleetStats — with the replication block, when there is one, attached.
	wireStats(repl *ReplicationStats) any
}

// HandlerConfig customizes NewHandlerConfig for a replication topology. The
// zero value is a plain standalone engine (what NewHandler mounts).
type HandlerConfig struct {
	// LeaderURL, when non-nil, marks this node a replica: writes rejected
	// with ErrReadOnly are answered 421 Misdirected Request carrying the
	// leader's base URL (in the JSON body and the X-Taser-Leader header) so
	// producers re-aim their stream. The function is consulted per request —
	// the leader can change after a promotion.
	LeaderURL func() string
	// Replication, when non-nil, supplies the replication block of /v1/stats
	// (role, state, applied sequence, lag).
	Replication func() ReplicationStats
	// Health, when non-nil, is an extra readiness predicate for /v1/healthz
	// (a follower reports unhealthy while its lag exceeds the threshold).
	// The WAL sticky-failure check always applies.
	Health func() error
}

// NewHandler exposes a serving backend (an Engine, or a sharded Fleet) behind
// the HTTP/JSON API cmd/taser-serve mounts (and the HTTP load generator
// drives). Endpoints:
//
//	POST /v1/ingest   {"src":1,"dst":2,"t":123.5,"feat":[...]}   → {"events":N,"watermark":T}
//	POST /v1/predict  {"src":1,"dst":2,"t":123.5}                → {"score":S,"version":V,"weights":W,"cached":B}
//	POST /v1/embed    {"node":1,"t":123.5}                       → {"embedding":[...],"version":V,"weights":W,"cached":B}
//	GET  /v1/stats                                               → counters and latency percentiles (a fleet adds per-shard blocks under "shards")
//	GET  /v1/healthz                                             → 200 when ready, 503 otherwise (a fleet aggregates every shard's readiness)
//
// Out-of-order events are rejected with HTTP 409 and the current watermark
// in the error body, so producers can resynchronize. On a read-only replica
// ingest is rejected with 421 and the leader's URL (see HandlerConfig). The
// full error → status table is statusFor; a body over maxBodyBytes is a 413.
func NewHandler(s Server) http.Handler { return NewHandlerConfig(s, HandlerConfig{}) }

// NewHandlerConfig is NewHandler with replication-aware knobs.
func NewHandlerConfig(s Server, hc HandlerConfig) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/ingest", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Src, Dst int32
			T        float64
			Feat     []float64
		}
		if !decode(w, r, &req) {
			return
		}
		if err := s.Ingest(req.Src, req.Dst, req.T, req.Feat); err != nil {
			hc.writeServeErr(w, err)
			return
		}
		wm, _ := s.Watermark() // the event just admitted set it
		writeJSON(w, http.StatusOK, map[string]any{"events": s.NumEvents(), "watermark": wm})
	})
	mux.HandleFunc("POST /v1/predict", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Src, Dst int32
			T        float64
		}
		if !decode(w, r, &req) {
			return
		}
		res, err := s.PredictLink(req.Src, req.Dst, req.T)
		if err != nil {
			hc.writeServeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"score": res.Score, "version": res.Version,
			"weights": res.Weights, "cached": res.Cached,
		})
	})
	mux.HandleFunc("POST /v1/embed", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Node int32
			T    float64
		}
		if !decode(w, r, &req) {
			return
		}
		res, err := s.Embed(req.Node, req.T)
		if err != nil {
			hc.writeServeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"embedding": res.Embedding, "version": res.Version,
			"weights": res.Weights, "cached": res.Cached,
		})
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		var repl *ReplicationStats
		if hc.Replication != nil {
			rs := hc.Replication()
			repl = &rs
		}
		writeJSON(w, http.StatusOK, s.wireStats(repl))
	})
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		// Readiness for a load balancer: the WAL must be healthy (a sticky
		// WAL failure means no write will ever be admitted again — a fleet
		// reports the first failing shard) and any topology-specific
		// predicate must pass (a follower's lag bound).
		err := s.DurableErr()
		if err == nil && hc.Health != nil {
			err = hc.Health()
		}
		if err != nil {
			writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "unhealthy", "error": err.Error()})
			return
		}
		role := "leader"
		if !s.Writable() {
			role = "follower"
		}
		writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "role": role, "writable": s.Writable()})
	})
	return mux
}

// wireStats implements Server.
func (e *Engine) wireStats(repl *ReplicationStats) any {
	st := e.Stats()
	st.ReplicationStats = repl
	return st
}

// wireStats implements Server.
func (f *Fleet) wireStats(repl *ReplicationStats) any {
	st := f.Stats()
	st.ReplicationStats = repl
	return st
}

// statusFor maps a serving error onto its HTTP status — the one table every
// POST handler answers from. A bad id, timestamp or feature width is the
// client's (400); a stale event conflicts with the watermark (409) and the
// producer resynchronizes; a read-only replica redirects (421); a shed is
// retryable after backoff (429); and a closed engine (the SIGTERM drain), a
// failed durable store or a cross-shard gather that could not settle on one
// weight version are the server's, not the request's (503).
func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrStaleEvent):
		return http.StatusConflict
	case errors.Is(err, ErrReadOnly):
		return http.StatusMisdirectedRequest
	case errors.Is(err, overload.ErrOverload):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrClosed), errors.Is(err, ErrDurability), errors.Is(err, ErrGather):
		return http.StatusServiceUnavailable
	}
	return http.StatusBadRequest
}

// writeServeErr answers a failed serving call: statusFor's code and the error
// text, plus what the client needs to act on two of them — a 421 names the
// leader (body and X-Taser-Leader header) so producers re-aim their stream; a
// 429 carries the shedding lane and Retry-After (whole seconds, rounded up,
// so clients honoring the header never retry early).
func (hc HandlerConfig) writeServeErr(w http.ResponseWriter, err error) {
	code := statusFor(err)
	body := map[string]any{"error": err.Error()}
	var rej *overload.RejectedError
	switch {
	case code == http.StatusMisdirectedRequest:
		leader := ""
		if hc.LeaderURL != nil {
			leader = hc.LeaderURL()
		}
		w.Header().Set("X-Taser-Leader", leader)
		body["leader"] = leader
	case errors.As(err, &rej):
		secs := max(1, int64((rej.RetryAfter+time.Second-1)/time.Second))
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
		body["lane"] = rej.Lane.String()
		body["retry_after_ms"] = rej.RetryAfter.Milliseconds()
	}
	writeJSON(w, code, body)
}

// maxBodyBytes bounds every request body: the largest legitimate one is an
// ingest carrying one edge-feature row, a few kilobytes.
const maxBodyBytes = 1 << 20

// decode parses the JSON body into dst, writing a 400 on failure and a 413
// when the body exceeds maxBodyBytes (so one huge "feat" array cannot make
// the decoder allocate at will).
func decode(w http.ResponseWriter, r *http.Request, dst any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(dst)
	if err == nil {
		return true
	}
	code := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		code = http.StatusRequestEntityTooLarge
	}
	writeJSON(w, code, map[string]string{"error": "bad request body: " + err.Error()})
	return false
}

// writeJSON answers with the status code and v as the JSON body. An encode
// failure is the connection's; there is nothing useful left to do with it.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}
