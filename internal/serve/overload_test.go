package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"taser/internal/datasets"
	"taser/internal/overload"
	"taser/internal/stats"
)

// waitGateQueued polls until the gate reports n queued waiters in lane
// (goroutine enqueue order is not otherwise observable from a test).
func waitGateQueued(t *testing.T, g *overload.Gate, lane overload.Lane, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for g.Stats().Lanes[lane].Queued != n {
		if time.Now().After(deadline) {
			t.Fatalf("lane %v never reached %d queued (have %d)", lane, n, g.Stats().Lanes[lane].Queued)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestOverloadDisabledAnchor is the bitwise-identity contract: an engine with
// a zero Overload config runs no overload code on any path — no gate, no
// "overload" key in the stats payload — and an engine with the control plane
// on serves embeddings bitwise-equal to the disabled one (the plane shapes
// admission, never computation).
func TestOverloadDisabledAnchor(t *testing.T) {
	ds := datasets.Wikipedia(0.02, 21)
	off, _ := newTestEngine(t, ds, nil)
	on, _ := newTestEngine(t, ds, func(c *Config) {
		c.Overload = overload.Config{MaxQueue: 64}
	})

	if off.gate != nil {
		t.Fatal("disabled engine constructed overload state")
	}
	if off.Stats().Overload != nil {
		t.Fatal("disabled engine reports overload stats")
	}
	if raw, _ := json.Marshal(off.wireStats(nil)); strings.Contains(string(raw), `"overload"`) {
		t.Fatal(`disabled engine's stats payload has an "overload" key`)
	}

	if on.gate == nil {
		t.Fatal("enabled engine missing overload state")
	}
	if st := on.Stats(); st.Overload == nil || st.Overload.Gate == nil {
		t.Fatalf("enabled engine's overload stats incomplete: %+v", st.Overload)
	}

	wm, _ := off.Watermark()
	queryT := wm + 1
	for _, v := range []int32{0, 3, 17, 51} {
		a, err := off.Embed(v, queryT)
		if err != nil {
			t.Fatal(err)
		}
		b, err := on.Embed(v, queryT)
		if err != nil {
			t.Fatal(err)
		}
		for j := range a.Embedding {
			if a.Embedding[j] != b.Embedding[j] {
				t.Fatalf("node %d emb[%d]: disabled %v enabled %v", v, j, a.Embedding[j], b.Embedding[j])
			}
		}
	}
}

// TestEngineShedsWithRetryAfter drives the admission path to a deterministic
// shed: capacity held, the ingest lane's queue filled, the next Ingest must
// fail fast with a typed rejection carrying a positive Retry-After — and the
// write must not have been admitted (watermark unchanged).
func TestEngineShedsWithRetryAfter(t *testing.T) {
	ds := datasets.Wikipedia(0.02, 22)
	e, _ := newTestEngine(t, ds, func(c *Config) {
		c.Overload = overload.Config{MaxQueue: 1, Capacity: 1}
	})
	wm, _ := e.Watermark()

	// Occupy the single capacity slot, then park one waiter in the ingest
	// lane's only queue seat.
	if err := e.gate.Enter(overload.LanePredict); err != nil {
		t.Fatal(err)
	}
	queuedErr := make(chan error, 1)
	go func() { queuedErr <- e.gate.Enter(overload.LaneIngest) }()
	waitGateQueued(t, e.gate, overload.LaneIngest, 1)

	err := e.Ingest(1, 2, wm+1, nil)
	if !errors.Is(err, overload.ErrOverload) {
		t.Fatalf("Ingest over a full queue = %v, want ErrOverload", err)
	}
	var rej *overload.RejectedError
	if !errors.As(err, &rej) {
		t.Fatalf("shed error is %T, want *RejectedError", err)
	}
	if rej.Lane != overload.LaneIngest || rej.Depth != 1 || rej.RetryAfter <= 0 {
		t.Fatalf("rejection = %+v, want ingest lane, depth 1, positive Retry-After", rej)
	}
	if got, _ := e.Watermark(); got != wm {
		t.Fatalf("shed ingest moved the watermark: %v → %v", wm, got)
	}
	if shed := e.gate.Stats().Lanes[overload.LaneIngest].Shed; shed != 1 {
		t.Fatalf("shed counter = %d, want 1", shed)
	}

	// Release: the queued waiter gets the slot, then drains cleanly.
	e.gate.Leave(overload.LanePredict)
	if err := <-queuedErr; err != nil {
		t.Fatalf("queued waiter woke with %v", err)
	}
	e.gate.Leave(overload.LaneIngest)
	if err := e.Ingest(1, 2, wm+1, nil); err != nil {
		t.Fatalf("post-drain Ingest: %v", err)
	}
}

// TestHandlerOverloadSurface checks the HTTP taxonomy and observability: a
// shed POST answers 429 Too Many Requests with a Retry-After header (≥1s,
// whole seconds) and the typed JSON body, and /v1/stats exposes the overload
// block with the shed attributed to the right lane.
func TestHandlerOverloadSurface(t *testing.T) {
	ds := datasets.Wikipedia(0.02, 23)
	e, _ := newTestEngine(t, ds, func(c *Config) {
		c.Overload = overload.Config{MaxQueue: 1, Capacity: 1}
	})
	srv := httptest.NewServer(NewHandler(e))
	defer srv.Close()

	// Hold the slot and fill the predict lane's queue so the next predict
	// sheds immediately instead of blocking the HTTP client.
	if err := e.gate.Enter(overload.LaneIngest); err != nil {
		t.Fatal(err)
	}
	queuedErr := make(chan error, 1)
	go func() { queuedErr <- e.gate.Enter(overload.LanePredict) }()
	waitGateQueued(t, e.gate, overload.LanePredict, 1)

	resp, err := http.Post(srv.URL+"/v1/predict", "application/json",
		strings.NewReader(`{"src":1,"dst":2,"t":1e9}`))
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		Error        string `json:"error"`
		Lane         string `json:"lane"`
		RetryAfterMS int64  `json:"retry_after_ms"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("shed predict = %d, want 429", resp.StatusCode)
	}
	ra := resp.Header.Get("Retry-After")
	if ra == "" || ra == "0" {
		t.Fatalf("Retry-After header = %q, want at least 1 second", ra)
	}
	if body.Lane != "predict" || body.Error == "" {
		t.Fatalf("shed body = %+v", body)
	}

	// Drain the held state before reading stats.
	e.gate.Leave(overload.LaneIngest)
	if err := <-queuedErr; err != nil {
		t.Fatalf("queued waiter woke with %v", err)
	}
	e.gate.Leave(overload.LanePredict)

	sresp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var payload map[string]any
	if err := json.NewDecoder(sresp.Body).Decode(&payload); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	ov, ok := payload["overload"].(map[string]any)
	if !ok {
		t.Fatalf("stats payload has no overload block: %v", payload["overload"])
	}
	gate := ov["gate"].(map[string]any)
	lanes := gate["lanes"].(map[string]any)
	pred := lanes["predict"].(map[string]any)
	if shed := pred["shed"].(float64); shed != 1 {
		t.Fatalf("stats shed[predict] = %v, want 1", shed)
	}
}

// TestIngestFloodDoesNotStarvePredict is the lane-priority smoke: with the
// gate at capacity 1 and a deep ingest backlog, a predict request still
// completes promptly — the weighted handoff guarantees it a slot within a
// bounded number of completions, not after the flood drains.
func TestIngestFloodDoesNotStarvePredict(t *testing.T) {
	ds := datasets.Wikipedia(0.02, 25)
	e, _ := newTestEngine(t, ds, func(c *Config) {
		c.Overload = overload.Config{MaxQueue: 64, Capacity: 1}
	})
	wm, _ := e.Watermark()
	var tick atomic.Int64
	tick.Store(int64(wm) + 1)

	var wg sync.WaitGroup
	for i := 0; i < 24; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Monotone per-call timestamps; concurrent producers may still
			// interleave behind the watermark — stale is fine, starvation isn't.
			err := e.Ingest(1, 2, float64(tick.Add(1)), nil)
			if err != nil && !errors.Is(err, ErrStaleEvent) && !errors.Is(err, overload.ErrOverload) {
				t.Errorf("flood ingest: %v", err)
			}
		}()
	}
	done := make(chan error, 1)
	go func() {
		_, err := e.Embed(3, float64(tick.Load()+1000))
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("predict under flood: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("predict starved behind the ingest flood")
	}
	wg.Wait()
}

// TestCloseDuringShedBurst closes the engine in the middle of an admission
// storm: every in-flight call must return (admitted ones served, queued ones
// woken with a terminal error — never a hang) and the engine's goroutines
// must all exit.
func TestCloseDuringShedBurst(t *testing.T) {
	before := runtime.NumGoroutine()
	ds := datasets.Wikipedia(0.02, 26)
	e, _ := newTestEngine(t, ds, func(c *Config) {
		c.Overload = overload.Config{MaxQueue: 2, Capacity: 2}
	})
	wm, _ := e.Watermark()
	var tick atomic.Int64
	tick.Store(int64(wm) + 1)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var err error
				if i%2 == 0 {
					_, err = e.Embed(int32(i), float64(tick.Load()+100))
				} else {
					err = e.Ingest(1, 2, float64(tick.Add(1)), nil)
				}
				if errors.Is(err, ErrClosed) {
					return // terminal: the burst raced Close, as intended
				}
			}
		}(i)
	}
	time.Sleep(50 * time.Millisecond) // let the burst saturate the gate
	e.Close()
	close(stop)

	joined := make(chan struct{})
	go func() { wg.Wait(); close(joined) }()
	select {
	case <-joined:
	case <-time.After(60 * time.Second):
		t.Fatal("requests hung across Close during a shed burst")
	}

	// Every engine goroutine (the scheduler) must be gone.
	waitGoroutinesGone(t, before)
}

// waitGoroutinesGone fails the test unless the goroutine count returns to its
// pre-engine level (plus slack for runtime helpers) soon after Close.
func waitGoroutinesGone(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak after Close: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestFleetMergedOverloadStats checks the sharded composition: each shard
// runs its own gate, and the fleet's merged stats payload sums capacities and
// lane counters across shards while each per-shard block keeps its own view.
func TestFleetMergedOverloadStats(t *testing.T) {
	ds := datasets.Wikipedia(0.02, 27)
	tr := newMixerTrainer(t, ds)
	fl := newTestFleet(t, tr, ds, 2, func(fc *FleetConfig) {
		fc.Overload = overload.Config{MaxQueue: 16}
	})
	events := ds.Graph.Events
	if err := fl.Bootstrap(events[:64], ds.EdgeFeat.SliceRows(64)); err != nil {
		t.Fatal(err)
	}
	for i := 64; i < 128; i++ {
		ev := events[i]
		if err := fl.Ingest(ev.Src, ev.Dst, ev.Time, ds.EdgeFeat.Row(i)); err != nil {
			t.Fatal(err)
		}
	}
	wm, _ := fl.Watermark()
	for i := 0; i < 8; i++ {
		if _, err := fl.PredictLink(int32(i), int32(i+1), wm+1); err != nil {
			t.Fatal(err)
		}
	}

	// Round-trip through JSON so the assertions see what an HTTP client
	// decoding the wire struct would.
	raw, err := json.Marshal(fl.wireStats(nil))
	if err != nil {
		t.Fatal(err)
	}
	var st FleetStats
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	if st.Overload == nil || st.Overload.Gate == nil {
		t.Fatal("fleet stats payload has no overload gate block")
	}
	perShard := 2 * fl.cfg.MaxBatch // Normalize's Capacity default per engine
	if got := st.Overload.Gate.Capacity; got != 2*perShard {
		t.Fatalf("merged capacity = %d, want %d (sum of %d shards)", got, 2*perShard, 2)
	}
	lanes := []string{"predict", "ingest", "low"}
	var admitted, shardAdmitted uint64
	for _, name := range lanes {
		admitted += st.Overload.Gate.ByName[name].Admitted
	}
	for _, blk := range st.Shards {
		if blk.Overload == nil || blk.Overload.Gate == nil {
			t.Fatalf("shard block %d has no overload gate block", blk.Shard)
		}
		for _, name := range lanes {
			shardAdmitted += blk.Overload.Gate.ByName[name].Admitted
		}
	}
	if admitted == 0 || admitted != shardAdmitted {
		t.Fatalf("merged admitted = %v, per-shard sum = %v (want equal and positive)", admitted, shardAdmitted)
	}
}

// TestFleetCloseDuringShedBurst is the drain-ordering check at fleet scope:
// closing mid-storm with tiny per-shard gates, every in-flight routed op —
// teed ingests included — must return rather than hang on a half-closed
// shard.
func TestFleetCloseDuringShedBurst(t *testing.T) {
	ds := datasets.Wikipedia(0.02, 28)
	tr := newMixerTrainer(t, ds)
	fl := newTestFleet(t, tr, ds, 2, func(fc *FleetConfig) {
		fc.Overload = overload.Config{MaxQueue: 2, Capacity: 2}
	})
	if err := fl.Bootstrap(ds.Graph.Events[:64], ds.EdgeFeat.SliceRows(64)); err != nil {
		t.Fatal(err)
	}
	wm, _ := fl.Watermark()
	var tick atomic.Int64
	tick.Store(int64(wm) + 1)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var err error
				if i%2 == 0 {
					_, err = fl.PredictLink(int32(i), int32(i+1), float64(tick.Load()+100))
				} else {
					err = fl.Ingest(int32(i), int32(i+7), float64(tick.Add(1)), nil)
				}
				if errors.Is(err, ErrClosed) {
					return
				}
			}
		}(i)
	}
	time.Sleep(50 * time.Millisecond)
	fl.Close()
	close(stop)

	joined := make(chan struct{})
	go func() { wg.Wait(); close(joined) }()
	select {
	case <-joined:
	case <-time.After(60 * time.Second):
		t.Fatal("fleet ops hung across Close during a shed burst")
	}
}

// TestLatencyRingConcurrentSampling hammers the latency ring with writers
// while a sampler continuously snapshots it (a /v1/stats reader's access
// pattern). Under -race this proves sampling never races the request path;
// the value assertions prove quantiles stay within the written value set
// across ring wrap-around.
func TestLatencyRingConcurrentSampling(t *testing.T) {
	var r latencyRing
	r.init(64)
	const lo, hi = time.Millisecond, 16 * time.Millisecond

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			d := lo + time.Duration(w)*time.Millisecond
			for {
				select {
				case <-stop:
					return
				default:
				}
				r.add(d)
				d += time.Millisecond
				if d > hi {
					d = lo
				}
			}
		}(w)
	}

	var buf []float64
	deadline := time.Now().Add(500 * time.Millisecond)
	for time.Now().Before(deadline) {
		buf = r.sample(buf)
		if len(buf) == 0 {
			continue
		}
		for _, q := range []float64{0.5, 0.99} {
			got := time.Duration(stats.Quantile(buf, q) * float64(time.Second))
			if got < lo || got > hi {
				t.Fatalf("q%.2f = %v outside the written range [%v, %v]", q, got, lo, hi)
			}
		}
		if len(buf) > 64 {
			t.Fatalf("sample window %d exceeds the ring capacity 64", len(buf))
		}
	}
	close(stop)
	wg.Wait()
}
