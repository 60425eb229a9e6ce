package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"taser/internal/overload"
)

// failingServer is an engine whose serving calls all fail with err — how the
// status-code cases below put errors an idle test engine never raises (a
// closed engine, a failed store, a diverged gather) behind the real handler.
type failingServer struct {
	*Engine
	err error
}

func (s failingServer) Ingest(src, dst int32, t float64, feat []float64) error { return s.err }
func (s failingServer) PredictLink(src, dst int32, t float64) (PredictResult, error) {
	return PredictResult{}, s.err
}
func (s failingServer) Embed(node int32, t float64) (EmbedResult, error) {
	return EmbedResult{}, s.err
}

// TestHandlerEndpoints exercises the HTTP/JSON surface end to end over a
// real loopback listener: ingest (including the 409 stale contract), predict
// and embed (including the served snapshot/weight versions), stats, the body
// size bound, and the one error → status table the three POST handlers share.
func TestHandlerEndpoints(t *testing.T) {
	e, ds := newWeightTestEngine(t, 64)
	srv := httptest.NewServer(NewHandler(e))
	defer srv.Close()

	post := func(path string, body map[string]any) (int, map[string]any) {
		t.Helper()
		buf, _ := json.Marshal(body)
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(buf))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		return resp.StatusCode, out
	}

	wm, _ := e.Watermark()
	code, out := post("/v1/ingest", map[string]any{"src": 1, "dst": 2, "t": wm + 1})
	if code != http.StatusOK || out["watermark"].(float64) != wm+1 {
		t.Fatalf("ingest: %d %v", code, out)
	}
	// Behind the watermark: 409 with the watermark in the error body.
	code, out = post("/v1/ingest", map[string]any{"src": 1, "dst": 2, "t": wm - 10})
	if code != http.StatusConflict || out["error"] == nil {
		t.Fatalf("stale ingest: %d %v", code, out)
	}

	ev := ds.Graph.Events[0]
	code, out = post("/v1/predict", map[string]any{"src": ev.Src, "dst": ev.Dst, "t": wm + 2})
	if code != http.StatusOK {
		t.Fatalf("predict: %d %v", code, out)
	}
	if out["version"].(float64) < 1 || out["weights"].(float64) != 1 {
		t.Fatalf("predict versions: %v", out)
	}
	code, out = post("/v1/embed", map[string]any{"node": ev.Src, "t": wm + 2})
	if code != http.StatusOK || len(out["embedding"].([]any)) == 0 {
		t.Fatalf("embed: %d %v", code, out)
	}

	// Publish new weights; the HTTP surface reports the swap.
	if err := e.PublishWeights(perturbed(e, 2, 1.2)); err != nil {
		t.Fatal(err)
	}
	code, out = post("/v1/predict", map[string]any{"src": ev.Src, "dst": ev.Dst, "t": wm + 2})
	if code != http.StatusOK || out["weights"].(float64) != 2 {
		t.Fatalf("post-publish predict: %d %v", code, out)
	}

	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st["nodes"].(float64) != float64(ds.Spec.NumNodes) {
		t.Fatalf("stats nodes: %v", st["nodes"])
	}
	if st["weight_version"].(float64) != 2 || st["weight_swaps"].(float64) != 1 {
		t.Fatalf("stats weights: %v / %v", st["weight_version"], st["weight_swaps"])
	}
	// Malformed body: 400.
	r2, err := http.Post(srv.URL+"/v1/predict", "application/json", bytes.NewReader([]byte("{nope")))
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: %d", r2.StatusCode)
	}

	// Oversized body: 413 before the decoder buffers it, and nothing admitted.
	eventsBefore, wmBefore := e.NumEvents(), wm+1
	huge := `{"src":1,"dst":2,"t":1e18,"feat":[` + strings.Repeat("0,", maxBodyBytes/2) + `0]}`
	r3, err := http.Post(srv.URL+"/v1/ingest", "application/json", strings.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	r3.Body.Close()
	if r3.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized ingest body: %d, want 413", r3.StatusCode)
	}
	if got, _ := e.Watermark(); e.NumEvents() != eventsBefore || got != wmBefore {
		t.Fatalf("oversized ingest changed the stream: %d events at t=%v, want %d at t=%v",
			e.NumEvents(), got, eventsBefore, wmBefore)
	}

	// Client errors the engine itself raises: 400 from every handler.
	for path, body := range map[string]map[string]any{
		"/v1/ingest":  {"src": 1, "dst": 2, "t": wm + 5, "feat": []float64{1}}, // wrong feature width
		"/v1/predict": {"src": -1, "dst": 2, "t": wm + 5},
		"/v1/embed":   {"node": ds.Spec.NumNodes, "t": wm + 5},
	} {
		if code, out := post(path, body); code != http.StatusBadRequest || out["error"] == nil {
			t.Fatalf("%s with a bad argument: %d %v, want 400", path, code, out)
		}
	}

	// Every other error class, through all three handlers: the status comes
	// from one table, whichever call failed.
	for _, tc := range []struct {
		err  error
		want int
	}{
		{errors.New("serve: node id out of range"), http.StatusBadRequest},
		{&ShardError{Shard: 1, Err: fmt.Errorf("%w: behind t=3", ErrStaleEvent)}, http.StatusConflict},
		{fmt.Errorf("%w: ingest", ErrReadOnly), http.StatusMisdirectedRequest},
		{&overload.RejectedError{Lane: overload.LaneIngest, Depth: 4}, http.StatusTooManyRequests},
		{ErrClosed, http.StatusServiceUnavailable},
		{fmt.Errorf("%w: disk full", ErrDurability), http.StatusServiceUnavailable},
		{fmt.Errorf("%w: shard 0 at v2, shard 1 at v3", ErrGather), http.StatusServiceUnavailable},
	} {
		fsrv := httptest.NewServer(NewHandler(failingServer{Engine: e, err: tc.err}))
		for _, path := range []string{"/v1/ingest", "/v1/predict", "/v1/embed"} {
			resp, err := http.Post(fsrv.URL+path, "application/json", strings.NewReader("{}"))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Errorf("%s failing with %q: status %d, want %d", path, tc.err, resp.StatusCode, tc.want)
			}
		}
		fsrv.Close()
	}

	// The SIGTERM drain, for real: a closed engine answers 503, not 400.
	e.Close()
	for _, path := range []string{"/v1/predict", "/v1/embed"} {
		if code, out := post(path, map[string]any{"src": 1, "dst": 2, "node": 1, "t": wm + 5}); code != http.StatusServiceUnavailable {
			t.Fatalf("%s after Close: %d %v, want 503", path, code, out)
		}
	}
}

// TestHandlerReplicaSurface exercises the replication-aware HTTP surface: a
// read-only engine answers ingest with 421 + the leader's URL, /v1/healthz
// reflects role, writability and the injected readiness predicate, and
// /v1/stats carries read_only, checkpoint age and the replication block.
func TestHandlerReplicaSurface(t *testing.T) {
	e, _ := newWeightTestEngine(t, 0)
	var healthErr error
	srv := httptest.NewServer(NewHandlerConfig(e, HandlerConfig{
		LeaderURL:   func() string { return "http://leader.example:8191" },
		Replication: func() ReplicationStats { return ReplicationStats{Role: "follower", Lag: 7} },
		Health:      func() error { return healthErr },
	}))
	defer srv.Close()

	getJSON := func(path string) (int, map[string]any) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		return resp.StatusCode, out
	}

	// Writable engine: healthy leader, ingest accepted.
	code, out := getJSON("/v1/healthz")
	if code != http.StatusOK || out["role"] != "leader" || out["writable"] != true {
		t.Fatalf("healthz on leader: %d %v", code, out)
	}

	// Flip read-only: the node is a follower now.
	e.SetWritable(false)
	wm, _ := e.Watermark()
	body, _ := json.Marshal(map[string]any{"src": 1, "dst": 2, "t": wm + 1})
	resp, err := http.Post(srv.URL+"/v1/ingest", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var rej map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&rej); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("read-only ingest: %d, want 421", resp.StatusCode)
	}
	if rej["leader"] != "http://leader.example:8191" ||
		resp.Header.Get("X-Taser-Leader") != "http://leader.example:8191" {
		t.Fatalf("read-only ingest did not point at the leader: %v / %q",
			rej, resp.Header.Get("X-Taser-Leader"))
	}

	code, out = getJSON("/v1/healthz")
	if code != http.StatusOK || out["role"] != "follower" || out["writable"] != false {
		t.Fatalf("healthz on follower: %d %v", code, out)
	}

	// The injected predicate (a follower over its lag bound) flips 503.
	healthErr = errDummyUnhealthy
	code, out = getJSON("/v1/healthz")
	if code != http.StatusServiceUnavailable || out["status"] != "unhealthy" {
		t.Fatalf("unhealthy healthz: %d %v", code, out)
	}
	healthErr = nil

	resp, err = http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if !st.ReadOnly {
		t.Fatal("stats read_only false on a read-only engine")
	}
	if st.ReplicationStats == nil || st.Lag != 7 || st.Role != "follower" {
		t.Fatalf("replication block not attached: %+v", st.ReplicationStats)
	}
	if st.CheckpointAgeMS != -1 {
		t.Fatalf("non-durable engine should report checkpoint age -1, got %v", st.CheckpointAgeMS)
	}
}

var errDummyUnhealthy = errors.New("lag over threshold")
