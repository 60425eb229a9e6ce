package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"taser/internal/mathx"
)

// httpSpec is the open-loop HTTP workload: one constant-interval schedule,
// each slot drawn predict / embed / ingest with Zipf node popularity, sent
// over conns keep-alive connections to the program's own handler on a
// loopback listener in this process.
type httpSpec struct {
	serveSpec
	conns        int
	rate         float64             // slots per second
	lapSlots     func(o options) int // slots per lap
	predictShare float64
	embedShare   float64 // the rest are ingests
	zipf         float64
	limitMS      float64 // a read answered later than this (from its due instant) is late
}

type slotKind int

const (
	kindPredict slotKind = iota
	kindEmbed
	kindIngest
)

var kindPath = [...]string{"/v1/predict", "/v1/embed", "/v1/ingest"}

type slot struct {
	kind slotKind
	body []byte // nil for ingests: they take the next continuation event when sent
}

type httpRun struct {
	*serveBase
	spec    httpSpec
	srv     *http.Server
	base    string
	clients []*http.Client
	zipf    *mathx.Alias

	ingestMu sync.Mutex // serializes ingests so timestamps reach the server in order

	mu        sync.Mutex // guards everything below
	reads     int
	late      int       // reads answered correctly but after the latency limit
	sideLaps  []sideLap // per primary lap: the ingests that rode it
	lagMS     []float64 // how late the generator dispatched each slot
	lastVer   []uint64  // per connection
	firstFail error
}

func (s httpSpec) setup(o options, tr *tracer) (running, error) {
	b, err := s.setupBase(o, tr)
	if err != nil {
		return nil, err
	}
	r := &httpRun{serveBase: b, spec: s, lastVer: make([]uint64, s.conns)}
	weights := make([]float64, b.ds.Spec.NumNodes)
	for i := range weights {
		weights[i] = math.Pow(float64(i+1), -s.zipf)
	}
	r.zipf = mathx.NewAlias(weights)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.close()
		return nil, err
	}
	r.base = "http://" + ln.Addr().String()
	r.srv = &http.Server{Handler: newHandler(b.e, tr, s.conns)}
	go r.srv.Serve(ln) // returns once close has shut the server down
	for i := 0; i < s.conns; i++ {
		r.clients = append(r.clients, &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}})
	}
	id := tr.begin("warm", -1, -1)
	defer tr.end(id)
	warm := r.schedule(-1, s.warmRequests(o))
	var wg sync.WaitGroup
	errs := make([]error, s.conns)
	for c := range r.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(warm); i += s.conns {
				if warm[i].kind == kindIngest {
					continue // warm-up reads only: the continuation belongs to the timed schedule
				}
				if _, err := r.post(c, -1, warm[i], false); err != nil {
					errs[c] = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			r.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return r, nil
}

func (r *httpRun) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := r.srv.Shutdown(ctx)
	for _, c := range r.clients {
		c.CloseIdleConnections()
	}
	if cerr := r.serveBase.close(); err == nil {
		err = cerr
	}
	return err
}

// schedule draws one lap's slots from the seed and the lap number.
func (r *httpRun) schedule(lap, n int) []slot {
	rng := mathx.NewRNG(r.o.seed ^ uint64(lap+2)<<24 ^ 0x5c4ed)
	slots := make([]slot, n)
	for i := range slots {
		u := rng.Float64()
		switch {
		case u < r.spec.predictShare:
			src, dst := r.zipf.Draw(rng), r.zipf.Draw(rng)
			if lap == 0 && len(r.pairs) < 64 {
				r.pairs = append(r.pairs, [2]int32{int32(src), int32(dst)})
			}
			slots[i] = slot{kindPredict, fmt.Appendf(nil, `{"src":%d,"dst":%d,"t":%g}`, src, dst, r.qt)}
		case u < r.spec.predictShare+r.spec.embedShare:
			slots[i] = slot{kindEmbed, fmt.Appendf(nil, `{"node":%d,"t":%g}`, r.zipf.Draw(rng), r.qt)}
		default:
			slots[i] = slot{kind: kindIngest}
		}
	}
	return slots
}

// ingestBody is the next continuation event as an ingest request. Called
// with ingestMu held, so bodies and timestamps leave in stream order.
func (r *httpRun) ingestBody() ([]byte, error) {
	i := r.nextIngest
	if i >= len(r.ds.Graph.Events) {
		return nil, fmt.Errorf("the schedule ran past the dataset's continuation (%d events)", len(r.ds.Graph.Events)-r.ds.TrainEnd)
	}
	r.nextIngest++
	ev := r.ds.Graph.Events[i]
	return json.Marshal(map[string]any{"src": ev.Src, "dst": ev.Dst, "t": ev.Time, "feat": r.ds.EdgeFeat.Row(i)})
}

// post sends one slot on connection c and checks the reply: any status but
// 2xx, a non-finite score or a snapshot version going backwards fails the run.
func (r *httpRun) post(c, op int, s slot, traced bool) (time.Time, error) {
	body := s.body
	if s.kind == kindIngest {
		r.ingestMu.Lock()
		defer r.ingestMu.Unlock()
		var err error
		if body, err = r.ingestBody(); err != nil {
			return time.Time{}, err
		}
	}
	req, err := http.NewRequest(http.MethodPost, r.base+kindPath[s.kind], bytes.NewReader(body))
	if err != nil {
		return time.Time{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	if traced {
		req.Header.Set(connHeader, strconv.Itoa(c))
		req.Header.Set(opHeader, strconv.Itoa(op))
	}
	resp, err := r.clients[c].Do(req)
	if err != nil {
		return time.Time{}, err
	}
	reply, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	done := time.Now()
	if err != nil {
		return done, err
	}
	if resp.StatusCode/100 != 2 {
		return done, fmt.Errorf("POST %s: %s: %s", kindPath[s.kind], resp.Status, bytes.TrimSpace(reply))
	}
	if s.kind == kindIngest {
		return done, nil
	}
	var out struct {
		Score     *float64
		Embedding []float64
		Version   uint64
	}
	if err := json.Unmarshal(reply, &out); err != nil {
		return done, fmt.Errorf("POST %s: bad reply: %w", kindPath[s.kind], err)
	}
	switch {
	case s.kind == kindPredict && out.Score == nil:
		return done, fmt.Errorf("predict reply carries no score")
	case s.kind == kindPredict:
		err = finite("predict score", *out.Score)
	case len(out.Embedding) == 0:
		err = fmt.Errorf("embed reply carries no embedding")
	}
	if err == nil && out.Version < r.lastVer[c] {
		err = fmt.Errorf("snapshot version went backwards: %d after %d", out.Version, r.lastVer[c])
	}
	r.lastVer[c] = out.Version
	return done, err
}

// lap plays one lap of the schedule open-loop: a pacer hands each slot to the
// connection workers at its due instant whether or not earlier requests have
// returned, and every request is timed from that instant, so a stall is
// charged to the requests it delays.
func (r *httpRun) lap(i int, w *window, tr *tracer) (int, float64, error) {
	r.markTraced(tr, true)
	slots := r.schedule(i, r.spec.lapSlots(r.o))
	interval := time.Duration(float64(time.Second) / r.spec.rate)
	firstOp := i * len(slots)
	// Buffered to the whole lap: the pacer never blocks on a busy worker,
	// which is what makes the loop open.
	due := make(chan int, len(slots))
	start := time.Now()
	var wg sync.WaitGroup
	within := 0
	var ingestMS []float64
	for c := 0; c < r.spec.conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := range due {
				s := slots[k]
				dueAt := start.Add(time.Duration(k) * interval)
				id := tr.begin("client."+kindPath[s.kind][4:], -1, firstOp+k)
				done, err := r.post(c, firstOp+k, s, tr != nil)
				tr.end(id)
				ms := float64(done.Sub(dueAt)) / 1e6
				r.mu.Lock()
				switch {
				case err != nil:
					if r.firstFail == nil {
						r.firstFail = err
					}
				case s.kind == kindIngest:
					ingestMS = append(ingestMS, ms)
				default:
					r.reads++
					w.latMS = append(w.latMS, ms)
					if ms <= r.spec.limitMS {
						within++
					} else {
						r.late++
					}
				}
				r.mu.Unlock()
			}
		}(c)
	}
	for k := range slots {
		dueAt := start.Add(time.Duration(k) * interval)
		if d := time.Until(dueAt); d > 0 {
			time.Sleep(d)
		}
		r.lagMS = append(r.lagMS, float64(time.Since(dueAt))/1e6)
		due <- k
	}
	close(due)
	wg.Wait()
	r.sideLaps = append(r.sideLaps, sideLap{ops: len(ingestMS), seconds: time.Since(start).Seconds(), latMS: ingestMS})
	r.markTraced(tr, false)
	if r.firstFail != nil {
		return 0, 0, r.firstFail
	}
	reads := 0
	for _, s := range slots {
		if s.kind != kindIngest {
			reads++
		}
	}
	return reads, float64(within), nil
}

// after reports the ingests that rode the schedule as the side ops, then
// takes the quality probe through the engine once the schedule has drained.
func (r *httpRun) after(tr *tracer) (side, error) {
	if c := readCounters(r.e); c.gateShed > 0 || c.walFailed > 0 {
		return side{}, fmt.Errorf("%d requests shed, %d WAL failures at this rate", c.gateShed, c.walFailed)
	}
	sd := side{laps: r.sideLaps}
	publish(r.e)
	var err error
	sd.quality, err = r.quality(tr)
	return sd, err
}

func (r *httpRun) between(*tracer) error { return nil }

func (r *httpRun) counts() (int, int) { return r.reads, r.late }

func (r *httpRun) info() map[string]any {
	return map[string]any{
		"dataset": r.ds.String(), "connections": r.spec.conns, "rate_per_s": r.spec.rate,
		"latency_limit_ms":     r.spec.limitMS,
		"wal_dir":              filepath.Dir(r.tmp) + "/run-*/wal (inside -out, on the checkout's disk)",
		"generator_lag_ms_p99": quantile(r.lagMS, 0.99),
		"ops_per_s_counts":     "reads answered within the latency limit",
	}
}

func (r *httpRun) layers(tr *tracer, wallS float64) (metrics, error) {
	m, err := r.serveLayers(tr, wallS)
	if err != nil {
		return nil, err
	}
	m["bench.generator_lag_ms_p99"] = quantile(r.lagMS, 0.99)

	// HTTP overhead per read: the handler span minus the engine span it
	// contains — decode, encode and the mux.
	engine := map[int]float64{} // handler span id → engine child duration
	for _, s := range tr.spans {
		if (s.Name == "serve.PredictLink" || s.Name == "serve.Embed") && s.Parent >= 0 {
			engine[s.Parent] = float64(s.End-s.Start) / 1e3
		}
	}
	var overheadUS []float64
	for _, s := range tr.spans {
		if e, ok := engine[s.ID]; ok && s.Name == "serve.handler" {
			overheadUS = append(overheadUS, float64(s.End-s.Start)/1e3-e)
		}
	}
	m["serve.http_overhead_us_p50"] = median(overheadUS)
	if s := tr.byName()["serve.Ingest"]; s != nil {
		m["serve.ingest_us_per_event"] = s.totMS * 1e3 / float64(s.count)
	}

	if m["overload.gate_ns_per_req"], err = probeGate(r.spec.maxQueue, 32, pick(r.o, 200000, 1000)); err != nil {
		return nil, fmt.Errorf("gate probe: %w", err)
	}
	feat := r.ds.EdgeFeat.Row(0)
	m["wal.append_us_per_event"], m["wal.sync_ms_p50"], err = probeWAL(filepath.Join(r.tmp, "probe-wal"), feat, pick(r.o, 64*40, 64*3))
	if err != nil {
		return nil, fmt.Errorf("WAL probe: %w", err)
	}
	return m, nil
}
