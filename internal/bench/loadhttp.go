package bench

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"taser/internal/mathx"
	"taser/internal/sampler"
	"taser/internal/serve"
	"taser/internal/stats"
	"taser/internal/train"
)

// LoadHTTP is the HTTP-mode load generator: the same closed-loop Zipfian
// request mix as Serve, but driven over real HTTP — JSON bodies, connection
// reuse, one ingest producer POSTing /v1/ingest while client goroutines POST
// /v1/predict and /v1/embed — so the measured latency includes the full
// serving stack a deployment pays, not just the in-process engine.
//
// With Options.ServeAddr set it targets a live taser-serve at that base URL
// (polling /v1/stats until the server finishes pretraining, up to
// Options.ServeWait); `make loadtest-http` wires that up end to end. With an
// empty ServeAddr it self-hosts an engine behind serve.NewHandler on a
// loopback listener, which keeps the experiment (and its smoke test)
// self-contained.
func LoadHTTP(o Options) error {
	o = o.Normalize()
	if o.OpenLoop {
		return loadOpen(o)
	}
	if len(o.ServeShards) > 0 {
		return loadHTTPShardSweep(o)
	}
	base := o.ServeAddr
	if base == "" {
		ds := o.loadDatasets([]string{"wikipedia"})[0]
		tr, err := train.New(train.Config{
			Model: train.ModelTGAT, Finder: train.FinderGPU, FinderPolicy: "recent",
			Hidden: o.Hidden, TimeDim: o.TimeDim, Seed: o.Seed,
		}, ds)
		if err != nil {
			return err
		}
		e, err := serve.New(serve.Config{
			Model: tr.Model, Pred: tr.Pred,
			NumNodes: ds.Spec.NumNodes, NodeFeat: ds.NodeFeat, EdgeDim: ds.Spec.EdgeDim,
			Budget: tr.Cfg.N, Policy: sampler.MostRecent,
			MaxBatch: 32, MaxWait: 500 * time.Microsecond,
			CacheSize: 2048, SnapshotEvery: 128, Seed: o.Seed,
		})
		if err != nil {
			return err
		}
		defer e.Close()
		if err := e.Bootstrap(ds.Graph.Events[:ds.TrainEnd], ds.EdgeFeat.SliceRows(ds.TrainEnd)); err != nil {
			return err
		}
		srv := httptest.NewServer(serve.NewHandler(e))
		defer srv.Close()
		base = srv.URL
		fmt.Fprintf(o.Out, "self-hosted %s on %s\n", ds.Spec.Name, base)
	}

	wait := o.ServeWait
	if wait == 0 {
		wait = 120 * time.Second
	}
	st, err := pollStats(base, wait)
	if err != nil {
		return err
	}
	numNodes, watermark := st.Nodes, st.Watermark
	fmt.Fprintf(o.Out, "server ready: %d nodes, %v events, watermark t=%v, weights v%v\n",
		numNodes, st.Events, watermark, st.WeightVersion)

	clientsList := o.ServeClients
	if len(clientsList) == 0 {
		clientsList = []int{1, 4, 16}
	}
	reqs := o.ServeRequests
	if reqs == 0 {
		reqs = 200
	}
	rate := o.ServeIngestRate
	if rate == 0 {
		rate = 500 // events/sec over HTTP
	}

	// Zipfian node popularity, as the in-process generator uses.
	weights := make([]float64, numNodes)
	for i := range weights {
		weights[i] = math.Pow(float64(i+1), -1.1)
	}
	zipf := mathx.NewAlias(weights)
	qt := watermark + 1e9 // at-or-past every event, like the in-process loadgen

	fmt.Fprintf(o.Out, "HTTP load test (%d reqs/client, ingest %.0f ev/s, Zipf s=1.1, 80%% predict / 20%% embed)\n",
		reqs, rate)
	fmt.Fprintf(o.Out, "%-8s %8s %9s %9s %9s %7s %8s %8s\n",
		"clients", "qps", "p50(ms)", "p99(ms)", "batch", "hit%", "ingested", "weights")

	for _, clients := range clientsList {
		if err := loadHTTPRow(o, base, zipf, qt, clients, reqs, rate, numNodes); err != nil {
			return err
		}
	}
	return nil
}

// loadHTTPShardSweep runs the HTTP load test once per requested shard count:
// each K self-hosts a K-shard GraphMixer fleet (a K>1 fleet requires a
// one-layer model) bootstrapped with the same training split, drives the same
// closed-loop client rows against it, and then reports per-shard throughput
// from the merged /v1/stats shards[] blocks — events and requests per shard,
// plus the fleet's tee and scatter/gather counters. On a single core the
// sweep measures routing overhead and balance, not wall-clock speedup; see
// EXPERIMENTS.md.
func loadHTTPShardSweep(o Options) error {
	if o.ServeAddr != "" {
		return fmt.Errorf("bench: the -shards sweep self-hosts one fleet per shard count; it cannot target -serve-addr")
	}
	ds := o.loadDatasets([]string{"wikipedia"})[0]
	clientsList := o.ServeClients
	if len(clientsList) == 0 {
		clientsList = []int{8}
	}
	reqs := o.ServeRequests
	if reqs == 0 {
		reqs = 200
	}
	rate := o.ServeIngestRate
	if rate == 0 {
		rate = 500
	}
	for _, K := range o.ServeShards {
		tr, err := train.New(train.Config{
			Model: train.ModelGraphMixer, Finder: train.FinderGPU, FinderPolicy: "recent",
			Hidden: o.Hidden, TimeDim: o.TimeDim, Seed: o.Seed,
		}, ds)
		if err != nil {
			return err
		}
		fleet, err := serve.NewFleet(serve.FleetConfig{
			Config: serve.Config{
				Model: tr.Model, Pred: tr.Pred,
				NumNodes: ds.Spec.NumNodes, NodeFeat: ds.NodeFeat, EdgeDim: ds.Spec.EdgeDim,
				Budget: tr.Cfg.N, Policy: sampler.MostRecent,
				MaxBatch: 32, MaxWait: 500 * time.Microsecond,
				CacheSize: 2048, SnapshotEvery: 128, Seed: o.Seed,
			},
			Shards: K,
		})
		if err != nil {
			return err
		}
		if err := fleet.Bootstrap(ds.Graph.Events[:ds.TrainEnd], ds.EdgeFeat.SliceRows(ds.TrainEnd)); err != nil {
			fleet.Close()
			return err
		}
		srv := httptest.NewServer(serve.NewHandler(fleet))
		st, err := fetchStats(srv.URL)
		if err == nil {
			err = shardSweepRows(o, srv.URL, K, st.Nodes, st.Watermark, clientsList, reqs, rate)
		}
		srv.Close()
		fleet.Close()
		if err != nil {
			return err
		}
	}
	return nil
}

// shardSweepRows drives the closed-loop rows for one shard count and prints
// the per-shard breakdown afterwards.
func shardSweepRows(o Options, base string, K, numNodes int, watermark float64, clientsList []int, reqs int, rate float64) error {
	weights := make([]float64, numNodes)
	for i := range weights {
		weights[i] = math.Pow(float64(i+1), -1.1)
	}
	zipf := mathx.NewAlias(weights)
	qt := watermark + 1e9

	fmt.Fprintf(o.Out, "shards=%d (graphmixer fleet, %d reqs/client, ingest %.0f ev/s)\n", K, reqs, rate)
	fmt.Fprintf(o.Out, "%-8s %8s %9s %9s %9s %7s %8s %8s\n",
		"clients", "qps", "p50(ms)", "p99(ms)", "batch", "hit%", "ingested", "weights")
	before, err := fetchStats(base)
	if err != nil {
		return err
	}
	for _, clients := range clientsList {
		if err := loadHTTPRow(o, base, zipf, qt, clients, reqs, rate, numNodes); err != nil {
			return err
		}
	}
	after, err := fetchStats(base)
	if err != nil {
		return err
	}
	fmt.Fprintf(o.Out, "fleet: teed=%d cross_shard_predicts=%d gather_retries=%d\n",
		after.Teed, after.CrossShard, after.GatherRetries)
	if len(after.Shards) == 0 {
		return fmt.Errorf("bench: /v1/stats has no shards[] — is the server a sharded taser-serve?")
	}
	// Throughput share is about this sweep's traffic: requests are deltas
	// against the pre-sweep stats, events and batches are totals.
	sweepReqs := make([]uint64, len(after.Shards))
	var totalReq uint64
	for i, blk := range after.Shards {
		sweepReqs[i] = blk.Requests
		if i < len(before.Shards) {
			sweepReqs[i] -= before.Shards[i].Requests
		}
		totalReq += sweepReqs[i]
	}
	for i, blk := range after.Shards {
		share := 0.0
		if totalReq > 0 {
			share = 100 * float64(sweepReqs[i]) / float64(totalReq)
		}
		fmt.Fprintf(o.Out, "  shard %d: events=%d requests=%d (%.0f%% of fleet) batches=%d\n",
			i, blk.Events, sweepReqs[i], share, blk.Batches)
	}
	fmt.Fprintln(o.Out)
	return nil
}

// loadHTTPRow runs one closed-loop row against the server and prints it.
func loadHTTPRow(o Options, base string, zipf *mathx.Alias, qt float64, clients, reqs int, rate float64, numNodes int) error {
	before, err := fetchStats(base)
	if err != nil {
		return err
	}
	// Resume from the live watermark so every row's events are admitted
	// (the snapshot watermark lags by up to SnapshotEvery events and a
	// fixed base would land behind the previous row's stream). qt sits
	// 1e9 past the bootstrap watermark, far above any tick reached here,
	// so probe queries stay at-or-after every ingested event.
	tick := before.LiveWatermark
	// One ingest producer: the watermark contract serializes writers, so a
	// single monotone HTTP producer avoids artificial 409 churn.
	stop := make(chan struct{})
	var ingested atomic.Int64
	var ingestErr error // producer-owned until ingestWG.Wait
	var ingestWG sync.WaitGroup
	ingestWG.Add(1)
	go func() {
		defer ingestWG.Done()
		rng := mathx.NewRNG(o.Seed ^ 0xfeed)
		interval := time.Duration(float64(time.Second) / rate)
		for {
			select {
			case <-stop:
				return
			default:
			}
			tick++
			body := map[string]any{"src": zipf.Draw(rng), "dst": rng.Intn(numNodes), "t": tick}
			switch err := postJSON(base+"/v1/ingest", body, nil); {
			case err == nil:
				ingested.Add(1)
			case errors.Is(err, errStale):
				// Raced another producer past the watermark: skip the event.
			default:
				ingestErr = err // a real failure (5xx, connection reset): stop and report
				return
			}
			time.Sleep(interval)
		}
	}()

	lats := make([][]float64, clients)
	errs := make([]error, clients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := mathx.NewRNG(o.Seed + uint64(c)*7919)
			for i := 0; i < reqs; i++ {
				v := zipf.Draw(rng)
				var err error
				t0 := time.Now()
				if rng.Float64() < 0.8 {
					err = postJSON(base+"/v1/predict",
						map[string]any{"src": v, "dst": zipf.Draw(rng), "t": qt}, nil)
				} else {
					err = postJSON(base+"/v1/embed",
						map[string]any{"node": v, "t": qt}, nil)
				}
				if err != nil {
					errs[c] = err
					return
				}
				lats[c] = append(lats[c], time.Since(t0).Seconds())
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(stop)
	ingestWG.Wait()
	if ingestErr != nil {
		return fmt.Errorf("bench: ingest producer failed: %w", ingestErr)
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}

	after, err := fetchStats(base)
	if err != nil {
		return err
	}
	var all []float64
	for _, l := range lats {
		all = append(all, l...)
	}
	// Server-side deltas for this row (the server is long-lived; absolute
	// counters span every row and any prior traffic).
	hits := float64(after.CacheHits - before.CacheHits)
	misses := float64(after.CacheMisses - before.CacheMisses)
	batches := float64(after.Batches - before.Batches)
	roots := hits + misses // resolved roots this row ≈ hits + misses
	hitRate := 0.0
	if hits+misses > 0 {
		hitRate = 100 * hits / (hits + misses)
	}
	avgBatch := 0.0
	if batches > 0 {
		avgBatch = (roots - hits) / batches
	}
	fmt.Fprintf(o.Out, "%-8d %8.0f %9.2f %9.2f %9.1f %6.1f%% %8d %8v\n",
		clients, float64(len(all))/elapsed.Seconds(),
		stats.Quantile(all, 0.50)*1e3, stats.Quantile(all, 0.99)*1e3,
		avgBatch, hitRate, ingested.Load(), after.WeightVersion)
	return nil
}

// pollStats waits for the server to come up (it may still be pretraining)
// and returns its first stats payload.
func pollStats(base string, wait time.Duration) (serve.FleetStats, error) {
	deadline := time.Now().Add(wait)
	for {
		st, err := fetchStats(base)
		if err == nil {
			return st, nil
		}
		if time.Now().After(deadline) {
			return st, fmt.Errorf("bench: server at %s not ready after %v: %w", base, wait, err)
		}
		time.Sleep(250 * time.Millisecond)
	}
}

// fetchStats GETs /v1/stats into the server's own wire type. FleetStats is a
// superset of a single engine's Stats, so one decode reads either topology
// (an engine's payload leaves Shards empty). A payload without a node count
// is not a taser-serve's — e.g. -serve-addr pointed at something else.
func fetchStats(base string) (serve.FleetStats, error) {
	var st serve.FleetStats
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("bench: GET /v1/stats: %s", resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, err
	}
	if st.Nodes <= 0 {
		return st, fmt.Errorf("bench: /v1/stats reports no nodes — is the server a current taser-serve?")
	}
	return st, nil
}

// errStale marks an ingest rejected with HTTP 409 (behind the watermark);
// the producer skips the event, any other failure aborts the row.
var errStale = errors.New("bench: stale event (409)")

// postJSON POSTs body and decodes into out when non-nil; non-2xx is an
// error, with 409 (stale ingest) distinguished as errStale.
func postJSON(url string, body any, out any) error {
	buf, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusConflict {
		return errStale
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("bench: POST %s: %s", url, resp.Status)
	}
	if out != nil {
		return json.NewDecoder(resp.Body).Decode(out)
	}
	return nil
}
