package serve_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"taser/internal/datasets"
	"taser/internal/models"
	"taser/internal/overload"
	"taser/internal/replica"
	"taser/internal/sampler"
	"taser/internal/serve"
	"taser/internal/train"
)

// The /v1/stats wire contract. testdata/stats_golden.json was generated by
// running the three scenarios below against the handler of the commit before
// the typed stats schema landed (295d0f7, where the payload was a hand-built
// map[string]any) and flattening each response with flattenStats. It is a
// frozen record of that schema: every key path, its JSON type and — at
// quiescence, for everything a wall clock does not drive — its value. A
// deliberate schema change edits the file by hand; the failure message prints
// the flattened response to paste from.

// volatileStats names the leaves whose value a clock, not the scenario,
// decides; the golden file records only their type.
var volatileStats = []string{
	"p50_us", "p99_us", "avg_swap_us", "checkpoint_age_ms", // latencies and ages
	"service_rate", // a rate over elapsed wall time
	"repl_polls",   // the tail loop polls on a timer
}

// flattenStats turns a /v1/stats body into path → "type" or "type=value".
func flattenStats(t *testing.T, body []byte) map[string]string {
	t.Helper()
	var v any
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("stats body is not JSON: %v\n%s", err, body)
	}
	out := map[string]string{}
	var walk func(path string, v any)
	walk = func(path string, v any) {
		switch x := v.(type) {
		case map[string]any:
			if len(x) == 0 {
				out[path] = "object"
			}
			for k, c := range x {
				p := k
				if path != "" {
					p = path + "." + k
				}
				walk(p, c)
			}
		case []any:
			if len(x) == 0 {
				out[path] = "array"
			}
			for i, c := range x {
				walk(fmt.Sprintf("%s[%d]", path, i), c)
			}
		case float64:
			out[path] = "number"
			leaf := path[strings.LastIndexAny(path, ".]")+1:]
			for _, vol := range volatileStats {
				if leaf == vol {
					return
				}
			}
			out[path] = fmt.Sprintf("number=%v", x)
		case bool:
			out[path] = fmt.Sprintf("bool=%v", x)
		case string:
			out[path] = "string=" + x
		case nil:
			out[path] = "null"
		}
	}
	walk("", v)
	return out
}

func goldenTrainer(t *testing.T, ds *datasets.Dataset, kind train.ModelKind) *train.Trainer {
	t.Helper()
	tr, err := train.New(train.Config{
		Model: kind, Finder: train.FinderGPU, FinderPolicy: "recent",
		Hidden: 12, TimeDim: 6, BatchSize: 32, Seed: 11,
	}, ds)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func goldenConfig(tr *train.Trainer, ds *datasets.Dataset, dir string) serve.Config {
	return serve.Config{
		Model: tr.Model.Clone(), Pred: tr.Pred.Clone(),
		NumNodes: ds.Spec.NumNodes, NodeFeat: ds.NodeFeat, EdgeDim: ds.Spec.EdgeDim,
		Budget: tr.Cfg.N, Policy: sampler.MostRecent, CacheSize: 64,
		MaxBatch: 8, MaxWait: time.Millisecond, SnapshotEvery: 64, Seed: 3,
		Durability: serve.Durability{Dir: dir, SyncEvery: 4},
	}
}

func getStats(t *testing.T, h http.Handler) []byte {
	t.Helper()
	srv := httptest.NewServer(h)
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/stats: %d %v", resp.StatusCode, err)
	}
	return body
}

// drive runs the same sequential (hence deterministic) traffic against any
// backend: ten ingests past the watermark, then predicts and embeds that
// revisit nodes so the cache both misses and hits.
func drive(t *testing.T, s serve.Server, ds *datasets.Dataset, from int) {
	t.Helper()
	wm, _ := s.Watermark()
	for i := 0; i < 10; i++ {
		ev := ds.Graph.Events[from+i]
		if err := s.Ingest(ev.Src, ev.Dst, wm+float64(i+1), ds.EdgeFeat.Row(from+i)); err != nil {
			t.Fatal(err)
		}
	}
	qt := wm + 100
	for round := 0; round < 2; round++ {
		for i := 0; i < 6; i++ {
			ev := ds.Graph.Events[i]
			if _, err := s.PredictLink(ev.Src, ev.Dst, qt); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := s.Embed(ds.Graph.Events[0].Src, qt); err != nil {
			t.Fatal(err)
		}
	}
}

// goldenEngine: a durable engine with the gate on.
func goldenEngine(t *testing.T) []byte {
	ds := datasets.Wikipedia(0.02, 5)
	tr := goldenTrainer(t, ds, train.ModelTGAT)
	cfg := goldenConfig(tr, ds, t.TempDir())
	cfg.Overload = overload.Config{MaxQueue: 16}
	e, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	half := len(ds.Graph.Events) / 2
	if err := e.Bootstrap(ds.Graph.Events[:half], ds.EdgeFeat.SliceRows(half)); err != nil {
		t.Fatal(err)
	}
	drive(t, e, ds, half)
	w := models.CaptureWeights(2, tr.Model, tr.Pred)
	for _, m := range w.Params {
		m.ScaleInPlace(1.1)
	}
	if err := e.PublishWeights(w); err != nil {
		t.Fatal(err)
	}
	ev := ds.Graph.Events[0]
	if _, err := e.PredictLink(ev.Src, ev.Dst, 1e12); err != nil { // swaps the published set in
		t.Fatal(err)
	}
	return getStats(t, serve.NewHandler(e))
}

// goldenFleet: a K=2 durable fleet with the gate on.
func goldenFleet(t *testing.T) []byte {
	ds := datasets.Wikipedia(0.02, 5)
	tr := goldenTrainer(t, ds, train.ModelGraphMixer)
	cfg := goldenConfig(tr, ds, t.TempDir())
	cfg.Overload = overload.Config{MaxQueue: 16}
	fl, err := serve.NewFleet(serve.FleetConfig{Config: cfg, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	half := len(ds.Graph.Events) / 2
	if err := fl.Bootstrap(ds.Graph.Events[:half], ds.EdgeFeat.SliceRows(half)); err != nil {
		t.Fatal(err)
	}
	drive(t, fl, ds, half)
	return getStats(t, serve.NewHandler(fl))
}

// goldenFollower: a read-only follower, caught up with its leader and
// tailing, serving /v1/stats with the replication block attached.
func goldenFollower(t *testing.T) []byte {
	ds := datasets.Wikipedia(0.02, 5)
	tr := goldenTrainer(t, ds, train.ModelTGAT)
	leader, err := serve.New(goldenConfig(tr, ds, t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	half := len(ds.Graph.Events) / 2
	if err := leader.Bootstrap(ds.Graph.Events[:half], ds.EdgeFeat.SliceRows(half)); err != nil {
		t.Fatal(err)
	}
	drive(t, leader, ds, half)
	if err := leader.Checkpoint(); err != nil { // syncs the WAL tail: everything is shippable
		t.Fatal(err)
	}
	l, err := replica.NewLeader(leader)
	if err != nil {
		t.Fatal(err)
	}
	lsrv := httptest.NewServer(l.Handler())
	defer lsrv.Close()

	e, err := serve.New(goldenConfig(tr, ds, t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	f, err := replica.StartFollower(replica.FollowerConfig{
		Engine: e, Leader: lsrv.URL, PollInterval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	deadline := time.Now().Add(10 * time.Second)
	for st := f.Status(); st.State != replica.StateTailing || st.Applied < uint64(half+10); st = f.Status() {
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck: %+v", st)
		}
		time.Sleep(2 * time.Millisecond)
	}
	ev := ds.Graph.Events[0]
	if _, err := e.PredictLink(ev.Src, ev.Dst, 1e12); err != nil {
		t.Fatal(err)
	}
	return getStats(t, followerHandler(e, f, lsrv.URL))
}

// TestStatsGolden: the typed encoder emits exactly the frozen key set, JSON
// types and quiescent counter values, for a standalone engine, a fleet and a
// follower — and orders every object scalars-first, because the smoke
// scripts' `field` helper takes the first textual match of a key.
func TestStatsGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/stats_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]map[string]string
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	for _, sc := range []struct {
		name string
		run  func(*testing.T) []byte
	}{
		{"engine", goldenEngine}, {"fleet", goldenFleet}, {"follower", goldenFollower},
	} {
		t.Run(sc.name, func(t *testing.T) {
			body := sc.run(t)
			got, want := flattenStats(t, body), golden[sc.name]
			var diffs []string
			for k, w := range want {
				if g, ok := got[k]; !ok {
					diffs = append(diffs, fmt.Sprintf("missing %s (want %s)", k, w))
				} else if g != w {
					diffs = append(diffs, fmt.Sprintf("%s: got %s, want %s", k, g, w))
				}
			}
			for k, g := range got {
				if _, ok := want[k]; !ok {
					diffs = append(diffs, fmt.Sprintf("unexpected %s (%s)", k, g))
				}
			}
			if len(diffs) > 0 {
				sort.Strings(diffs)
				flat, _ := json.MarshalIndent(got, "", "  ")
				t.Fatalf("/v1/stats departs from testdata/stats_golden.json:\n  %s\nflattened response:\n%s",
					strings.Join(diffs, "\n  "), flat)
			}
			assertScalarsFirst(t, body)
		})
	}
}

// assertScalarsFirst walks the body in encoding order and fails when, inside
// any object, a scalar key follows a nested object or array.
func assertScalarsFirst(t *testing.T, body []byte) {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(body))
	var object func(path string)
	var value func(path string) (nested bool)
	value = func(path string) bool {
		tok, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		switch tok {
		case json.Delim('{'):
			object(path)
			return true
		case json.Delim('['):
			for i := 0; dec.More(); i++ {
				value(fmt.Sprintf("%s[%d]", path, i))
			}
			dec.Token() // ]
			return true
		}
		return false
	}
	object = func(path string) {
		seenNested := ""
		for dec.More() {
			k, _ := dec.Token()
			key := fmt.Sprint(k)
			if value(path + "." + key) {
				seenNested = key
			} else if seenNested != "" {
				t.Errorf("%s: scalar %q is encoded after nested block %q", path, key, seenNested)
			}
		}
		dec.Token() // }
	}
	value("")
}

func followerHandler(e *serve.Engine, f *replica.Follower, leaderURL string) http.Handler {
	return serve.NewHandlerConfig(e, serve.HandlerConfig{
		LeaderURL: func() string { return leaderURL }, Replication: f.ReplicationStats, Health: f.Healthy,
	})
}
