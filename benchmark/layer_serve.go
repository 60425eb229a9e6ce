package main

import (
	"fmt"
	"net/http"
	"strconv"
	"time"

	"taser/internal/datasets"
	"taser/internal/overload"
	"taser/internal/sampler"
	"taser/internal/serve"
	"taser/internal/train"
)

// engineSpec is the part of serve.Config a workload chooses; the rest are
// cmd/taser-serve's defaults (MaxBatch 32, MaxWait 2 ms, SnapshotEvery 256,
// most-recent policy, GPU finder).
type engineSpec struct {
	cacheSize int
	walDir    string // "" = durability off
	maxQueue  int    // admission gate bound per lane, 0 = gate off (no SLO controller either way)
}

const snapshotEvery = 256

// newEngine builds an engine over a pretrained trainer's model and
// bootstraps it with the dataset's training split.
func newEngine(t *train.Trainer, ds *datasets.Dataset, es engineSpec, seed uint64) (*serve.Engine, error) {
	e, err := serve.New(serve.Config{
		Model: t.Model, Pred: t.Pred,
		NumNodes: ds.Spec.NumNodes, NodeFeat: ds.NodeFeat, EdgeDim: ds.Spec.EdgeDim,
		Budget: t.Cfg.N, Policy: sampler.MostRecent,
		MaxBatch: 32, MaxWait: 2 * time.Millisecond,
		CacheSize: es.cacheSize, SnapshotEvery: snapshotEvery,
		Durability: serve.Durability{Dir: es.walDir},
		Overload:   overload.Config{MaxQueue: es.maxQueue},
		Seed:       seed,
	})
	if err != nil {
		return nil, err
	}
	if err := e.Bootstrap(ds.Graph.Events[:ds.TrainEnd], ds.EdgeFeat.SliceRows(ds.TrainEnd)); err != nil {
		e.Close()
		return nil, fmt.Errorf("bootstrap: %w", err)
	}
	return e, nil
}

// predict is one Engine.PredictLink call under a "serve.PredictLink" span. It
// returns the score and the snapshot version served.
func predict(tr *tracer, parent, op int, e *serve.Engine, src, dst int32, t float64) (float64, uint64, error) {
	id := tr.begin("serve.PredictLink", parent, op)
	res, err := e.PredictLink(src, dst, t)
	tr.end(id)
	return res.Score, res.Version, err
}

// ingestEvent is one Engine.Ingest call.
func ingestEvent(e *serve.Engine, src, dst int32, t float64, feat []float64) error {
	return e.Ingest(src, dst, t, feat)
}

// publish forces a snapshot so the next request sees every ingested event.
func publish(e *serve.Engine) { e.PublishSnapshot() }

// engineCounters is the subset of serve.Stats the benchmark reads.
type engineCounters struct {
	batches, roots         uint64
	hits, stale, misses    uint64
	snapshotVersion        uint64
	walAppended, walSyncs  uint64
	walFailed              uint64
	gateAdmitted, gateShed uint64
}

func readCounters(e *serve.Engine) engineCounters {
	st := e.Stats()
	c := engineCounters{
		batches: st.Batches, roots: st.Roots,
		hits: st.CacheHits, stale: st.CacheStale, misses: st.CacheMisses,
		snapshotVersion: st.SnapshotVersion,
		walAppended:     st.WALAppended, walSyncs: st.WALSyncs, walFailed: st.WALFailures,
	}
	if st.Overload != nil && st.Overload.Gate != nil {
		for _, l := range st.Overload.Gate.Lanes {
			c.gateAdmitted += l.Admitted
			c.gateShed += l.Shed
		}
	}
	return c
}

// The headers a traced client sets so the server side can tie its spans to
// the request's op: which keep-alive connection, and which op.
const (
	connHeader = "X-Bench-Conn"
	opHeader   = "X-Bench-Op"
)

// newHandler mounts the engine behind the program's HTTP API. Untraced it is
// serve.NewHandler and nothing else. Traced, each of the client's conns
// keep-alive connections gets its own handler over a wrapper of the engine:
// HTTP/1.1 serves one request per connection at a time, so the wrapper knows
// which op the engine call it sees belongs to and can parent the engine span
// under the handler span — from outside the program.
func newHandler(e *serve.Engine, tr *tracer, conns int) http.Handler {
	if tr == nil {
		return serve.NewHandler(e)
	}
	plain := serve.NewHandler(e) // warm-up and the untraced pass carry no headers
	handlers := make([]http.Handler, conns)
	servers := make([]*tracedEngine, conns)
	for i := range handlers {
		servers[i] = &tracedEngine{Engine: e, tr: tr, parent: -1}
		handlers[i] = serve.NewHandler(servers[i])
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c, err := strconv.Atoi(r.Header.Get(connHeader))
		if err != nil || c < 0 || c >= conns {
			plain.ServeHTTP(w, r)
			return
		}
		op, _ := strconv.Atoi(r.Header.Get(opHeader))
		s := servers[c]
		s.op = op
		s.parent = tr.begin("serve.handler", -1, op)
		handlers[c].ServeHTTP(w, r)
		tr.end(s.parent)
		s.parent = -1
	})
}

// tracedEngine is an Engine whose serving calls record a span under the
// handler span of the connection it serves. Embedding promotes the rest of
// the serve.Server surface unchanged.
type tracedEngine struct {
	*serve.Engine
	tr     *tracer
	parent int
	op     int
}

func (s *tracedEngine) PredictLink(src, dst int32, t float64) (serve.PredictResult, error) {
	id := s.tr.begin("serve.PredictLink", s.parent, s.op)
	res, err := s.Engine.PredictLink(src, dst, t)
	s.tr.end(id)
	return res, err
}

func (s *tracedEngine) Embed(node int32, t float64) (serve.EmbedResult, error) {
	id := s.tr.begin("serve.Embed", s.parent, s.op)
	res, err := s.Engine.Embed(node, t)
	s.tr.end(id)
	return res, err
}

func (s *tracedEngine) Ingest(src, dst int32, t float64, feat []float64) error {
	id := s.tr.begin("serve.Ingest", s.parent, s.op)
	err := s.Engine.Ingest(src, dst, t, feat)
	s.tr.end(id)
	return err
}
