package bench

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"taser/internal/mathx"
	"taser/internal/sampler"
	"taser/internal/serve"
	"taser/internal/train"
)

// Serve load-tests the online inference subsystem: a closed-loop Zipfian
// request mix (80% link prediction, 20% embedding) from C concurrent clients
// against internal/serve, while one ingest writer streams synthetic events at
// a configured rate and snapshots publish underneath. Each row reports
// throughput, p50/p99 request latency, the mean micro-batch size, the
// embedding-cache hit rate, and how many snapshots were published.
//
// The single-core caveat of EXPERIMENTS.md applies doubly here: clients,
// the scheduler and the ingest writer time-slice one core, so latency is
// dominated by compute queueing rather than batching waits; the batching
// and cache columns are the hardware-independent signal.
func Serve(o Options) error {
	o = o.Normalize()
	ds := o.loadDatasets([]string{"wikipedia"})[0]

	// Weights are irrelevant to serving *performance*; skip pretraining and
	// take the model/predictor from a fresh trainer.
	tr, err := train.New(train.Config{
		Model: train.ModelTGAT, Finder: train.FinderGPU, FinderPolicy: "recent",
		Hidden: o.Hidden, TimeDim: o.TimeDim, Seed: o.Seed,
	}, ds)
	if err != nil {
		return err
	}

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
		rate = 2000 // events/sec
	}

	fmt.Fprintf(o.Out, "Online serving load test (%s, ingest %.0f ev/s, %d reqs/client, Zipf s=1.1)\n",
		ds.Spec.Name, rate, reqs)
	fmt.Fprintf(o.Out, "%-8s %-7s %8s %9s %9s %9s %7s %6s %6s\n",
		"clients", "cache", "qps", "p50(ms)", "p99(ms)", "batch", "hit%", "snaps", "ingest")
	for _, cacheSize := range []int{0, 2048} {
		for _, clients := range clientsList {
			row, err := serveRow(o, ds.Spec.NumNodes, ds.Spec.EdgeDim, tr, clients, cacheSize, reqs, rate)
			if err != nil {
				return err
			}
			fmt.Fprint(o.Out, row)
		}
	}
	return nil
}

func serveRow(o Options, numNodes, edgeDim int, tr *train.Trainer, clients, cacheSize, reqsPerClient int, rate float64) (string, error) {
	ds := tr.DS
	e, err := serve.New(serve.Config{
		Model: tr.Model, Pred: tr.Pred,
		NumNodes: numNodes, NodeFeat: ds.NodeFeat, EdgeDim: edgeDim,
		Budget: tr.Cfg.N, Policy: sampler.MostRecent,
		MaxBatch: 32, MaxWait: 500 * time.Microsecond,
		CacheSize: cacheSize, SnapshotEvery: 128, Seed: o.Seed,
	})
	if err != nil {
		return "", err
	}
	defer e.Close()
	if err := e.Bootstrap(ds.Graph.Events[:ds.TrainEnd],
		ds.EdgeFeat.SliceRows(ds.TrainEnd)); err != nil {
		return "", err
	}

	// Zipfian node popularity (exponent 1.1), fixed across rows so cache
	// columns are comparable.
	weights := make([]float64, numNodes)
	for i := range weights {
		weights[i] = math.Pow(float64(i+1), -1.1)
	}
	zipf := mathx.NewAlias(weights)

	stop := make(chan struct{})
	var ingested atomic.Int64
	var ingestWG sync.WaitGroup
	ingestWG.Add(1)
	go func() {
		defer ingestWG.Done()
		rng := mathx.NewRNG(o.Seed ^ 0xfeed)
		interval := time.Duration(float64(time.Second) / rate)
		tick, _ := e.Watermark()
		for {
			select {
			case <-stop:
				return
			default:
			}
			tick++
			src := int32(zipf.Draw(rng))
			dst := int32(rng.Intn(numNodes))
			if err := e.Ingest(src, dst, tick, nil); err == nil {
				ingested.Add(1)
			}
			time.Sleep(interval)
		}
	}()

	start := time.Now()
	var clientWG sync.WaitGroup
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		clientWG.Add(1)
		go func(c int) {
			defer clientWG.Done()
			rng := mathx.NewRNG(o.Seed + uint64(c)*7919)
			for i := 0; i < reqsPerClient; i++ {
				// Query "now": at or past every event in the pinned snapshot.
				qt := e.Pin().Watermark + 1e9
				v := int32(zipf.Draw(rng))
				if rng.Float64() < 0.8 {
					u := int32(zipf.Draw(rng))
					if _, err := e.PredictLink(v, u, qt); err != nil {
						errs[c] = err
						return
					}
				} else if _, err := e.Embed(v, qt); err != nil {
					errs[c] = err
					return
				}
			}
		}(c)
	}
	clientWG.Wait()
	elapsed := time.Since(start)
	close(stop)
	ingestWG.Wait()
	for _, err := range errs {
		if err != nil {
			return "", err
		}
	}

	st := e.Stats()
	qps := float64(st.Requests) / elapsed.Seconds()
	cacheLabel := "off"
	if cacheSize > 0 {
		cacheLabel = fmt.Sprintf("%d", cacheSize)
	}
	return fmt.Sprintf("%-8d %-7s %8.0f %9.2f %9.2f %9.1f %6.1f%% %6d %6d\n",
		clients, cacheLabel, qps,
		float64(st.P50.Microseconds())/1000, float64(st.P99.Microseconds())/1000,
		st.AvgBatch, 100*st.CacheHitRate, st.SnapshotVersion, ingested.Load()), nil
}
