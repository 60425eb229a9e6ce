// Command taser-serve runs the online inference subsystem behind an
// HTTP/JSON API: it pretrains a model offline on a dataset's training split,
// bootstraps the serving engine with those events, and then serves link
// prediction and node embeddings while accepting streaming ingest — the
// deployment loop of the paper's motivating applications. With -finetune it
// also attaches the continual-learning fine-tuner (internal/finetune), which
// tails the ingest stream and publishes updated weights into serving without
// ever blocking prediction.
//
// Usage:
//
//	taser-serve -dataset wikipedia -scale 0.1 -epochs 2 -addr :8080 [-finetune] [-wal-dir DIR]
//
// With -wal-dir the engine write-ahead-logs every ingested event and pairs
// published weights with checkpoints; on restart it recovers the stream
// (checkpoint + WAL replay) instead of re-bootstrapping, so the process picks
// up where the previous one crashed — losing at most the unsynced WAL tail,
// bounded by -wal-sync-every events.
//
// The endpoints (/v1/ingest, /v1/predict, /v1/embed, /v1/stats, /v1/healthz;
// all JSON) and their status codes are serve.NewHandler's. Whatever the
// topology, the process runs one sequence: recover → bootstrap → replay →
// listen → drain, over a backend that is a single engine or a fleet.
//
// Sharding: -shards K (K > 1, requires -model graphmixer) partitions the node
// space across K engines behind a consistent-hash router. Ingest routes each
// event to the shard owning its destination (teed to the source's owner when
// that differs), prediction scatter/gathers across shards when the endpoints
// hash apart, and -wal-dir gives every shard its own store directory
// (<dir>/shard-0..K-1) with independent recovery. /v1/stats reports merged
// totals plus a per-shard block each. Sharding excludes -replicate-from,
// -repl-listen, -promote and -finetune (single-engine features; DESIGN.md §12
// explains how they compose per-shard later).
//
// Replication (internal/replica): a durable node serves its WAL to read
// replicas under /v1/repl/ (or on a dedicated -repl-listen address). A node
// started with -replicate-from tails that leader instead of bootstrapping
// from the dataset: it catches up from the leader's shipped checkpoint,
// applies the streamed log through the identical ingest path (so its state
// is bitwise-equal to the leader's at every applied sequence), serves reads,
// and answers ingest with 421 + the leader's URL. POST /v1/repl/promote (or
// -promote at startup, or -failover-after of leader silence) seals the
// applied prefix and makes the node writable — the leader hand-off.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"taser/internal/datasets"
	"taser/internal/finetune"
	"taser/internal/overload"
	"taser/internal/replica"
	"taser/internal/sampler"
	"taser/internal/serve"
	"taser/internal/tensor"
	"taser/internal/tgraph"
	"taser/internal/train"
)

// backend is what the run sequence drives: the serving surface the HTTP
// handler mounts plus the lifecycle *serve.Engine and *serve.Fleet share.
type backend interface {
	serve.Server
	Recover() (serve.RecoveryReport, error)
	Bootstrap(events []tgraph.Event, feats *tensor.Matrix) error
	Close()
}

// readHeaderTimeout bounds how long a connection may take to send its request
// headers, on the API listener and the -repl-listen one alike: without it a
// client that opens a socket and stalls holds a goroutine forever.
const readHeaderTimeout = 10 * time.Second

func main() {
	var (
		dataset   = flag.String("dataset", "wikipedia", "dataset: wikipedia|reddit|flights|movielens|gdelt")
		scale     = flag.Float64("scale", 0.1, "dataset scale multiplier")
		model     = flag.String("model", "tgat", "backbone: tgat|graphmixer")
		epochs    = flag.Int("epochs", 2, "offline pretraining epochs")
		hidden    = flag.Int("hidden", 24, "hidden dimension")
		batch     = flag.Int("batch", 150, "pretraining batch size")
		n         = flag.Int("n", 10, "supporting neighbors per hop")
		seed      = flag.Uint64("seed", 42, "random seed")
		addr      = flag.String("addr", ":8080", "listen address")
		shards    = flag.Int("shards", 1, "serving shards: partition the node space across K engines behind a consistent-hash router (requires -model graphmixer for K>1)")
		maxBatch  = flag.Int("max-batch", 32, "max roots per serving micro-batch")
		maxWait   = flag.Duration("max-wait", 2*time.Millisecond, "upper bound on a micro-batch's gather (it normally ends sooner: when nobody else is submitting or at -max-batch)")
		cacheSize = flag.Int("emb-cache", 4096, "embedding-cache capacity in nodes (0 disables)")
		snapEvery = flag.Int("snapshot-every", 256, "publish a snapshot every k ingested events")
		replay    = flag.Bool("replay", false, "replay the val/test split through ingest at startup")

		walDir    = flag.String("wal-dir", "", "durable store directory: WAL + checkpoints (empty = durability off)")
		walSync   = flag.Int("wal-sync-every", 0, "events per WAL group commit (0 = serve default 64; 1 = fsync every event)")
		ckptEvery = flag.Int("checkpoint-every", 0, "events between periodic checkpoints (0 = only on weight publication, bootstrap and shutdown)")
		doRecover = flag.Bool("recover", true, "recover the stream from -wal-dir at startup (checkpoint + WAL replay)")

		ftOn       = flag.Bool("finetune", false, "attach the online fine-tuner (continual learning from the ingest stream)")
		ftInterval = flag.Duration("finetune-interval", 0, "fine-tune round cadence (0 = finetune default)")
		ftWindow   = flag.Int("replay-window", 0, "recent events replayed per fine-tune round (0 = finetune default)")
		ftLR       = flag.Float64("finetune-lr", 0, "fine-tuning learning rate (0 = finetune default)")

		sloP99     = flag.Duration("slo-p99", 0, "p99 latency target: the engine retunes its effective batching against it (0 = controller off)")
		ovInterval = flag.Duration("overload-interval", 0, "SLO controller decision cadence (0 = default 250ms; requires -slo-p99)")
		maxQueue   = flag.Int("max-queue", 0, "bounded admission: waiters per priority lane before shedding with 429 (0 = admission off)")
		ovCap      = flag.Int("overload-capacity", 0, "concurrent requests admitted across lanes (0 = default 2×-max-batch; requires -max-queue)")

		replFrom   = flag.String("replicate-from", "", "run as a read replica tailing this leader base URL (e.g. http://host:8080)")
		replListen = flag.String("repl-listen", "", "serve the replication endpoints on a dedicated address (default: mounted under /v1/repl/ on -addr)")
		promote    = flag.Bool("promote", false, "promote immediately after catching up (replica takes over as leader)")
		failover   = flag.Duration("failover-after", 0, "auto-promote after this much leader silence (0 = manual promotion only)")
		lagBound   = flag.Uint64("lag-threshold", 0, "replication lag above which /v1/healthz reports unready (0 = replica default)")
	)
	flag.Parse()
	explicit := map[string]bool{}
	flag.Visit(func(fl *flag.Flag) { explicit[fl.Name] = true })
	// die exits with code 2 for a configuration error (caught before any work
	// is done) and 1 for a failure of the work itself.
	die := func(code int, err error) {
		fmt.Fprintf(os.Stderr, "taser-serve: %v\n", err)
		os.Exit(code)
	}
	if err := validateFlags(flagValues{
		walDir: *walDir, replFrom: *replFrom, replListen: *replListen,
		promote: *promote, ftOn: *ftOn, replay: *replay,
		shards: *shards, model: *model,
		sloP99: *sloP99, ovInterval: *ovInterval,
		maxQueue: *maxQueue, ovCap: *ovCap,
	}, explicit); err != nil {
		die(2, err)
	}

	trainCfg := train.Config{
		Model: train.ModelKind(*model), Finder: train.FinderGPU, FinderPolicy: "recent",
		Hidden: *hidden, BatchSize: *batch, Epochs: *epochs, N: *n, Seed: *seed,
	}
	if err := trainCfg.Validate(); err != nil {
		die(2, err)
	}
	if err := datasets.CheckScale(*scale); err != nil {
		die(2, err)
	}

	ds, ok := datasets.ByName(*dataset, *scale, *seed)
	if !ok {
		die(2, fmt.Errorf("unknown dataset %q", *dataset))
	}
	fmt.Println(ds)

	tr, err := train.New(trainCfg, ds)
	if err != nil {
		die(1, err)
	}
	// The model exists now, so the serving config can be checked before the
	// first pretraining epoch instead of after the last (validateFlags already
	// covered what -shards needs).
	cfg := serve.Config{
		Model: tr.Model, Pred: tr.Pred,
		NumNodes: ds.Spec.NumNodes, NodeFeat: ds.NodeFeat, EdgeDim: ds.Spec.EdgeDim,
		Budget: *n, Policy: sampler.MostRecent,
		MaxBatch: *maxBatch, MaxWait: *maxWait,
		CacheSize: *cacheSize, SnapshotEvery: *snapEvery,
		Durability: serve.Durability{Dir: *walDir, SyncEvery: *walSync, CheckpointEvery: *ckptEvery},
		Overload:   overload.Config{TargetP99: *sloP99, Interval: *ovInterval, MaxQueue: *maxQueue, Capacity: *ovCap},
		Seed:       *seed,
	}
	if err := cfg.Validate(); err != nil {
		die(2, err)
	}
	for e := 0; e < *epochs; e++ {
		res := tr.TrainEpoch()
		fmt.Printf("pretrain epoch %2d  loss=%.4f  (%.1fs)\n", e+1, res.MeanLoss, res.Duration.Seconds())
	}

	// One backend, either shape. Replication and fine-tuning write into a
	// single engine directly, so they attach only when engine is non-nil
	// (validateFlags rejected them for -shards K>1).
	var (
		be     backend
		engine *serve.Engine
		fleet  *serve.Fleet
	)
	if *shards > 1 {
		fleet, err = serve.NewFleet(serve.FleetConfig{Config: cfg, Shards: *shards})
		be = fleet
	} else {
		engine, err = serve.New(cfg)
		be = engine
	}
	if err != nil {
		die(1, err)
	}
	if fleet != nil {
		fmt.Printf("sharded plane: %d engines on a consistent-hash ring (vnodes=%d/shard)\n", *shards, serve.DefaultVNodes)
	}

	// Recover the stream from the durable store when one exists (a fleet
	// recovers every shard from <dir>/shard-i); otherwise bootstrap with the
	// training split. The rest of the stream arrives via /v1/ingest (or
	// -replay for a self-contained demo). A recovered store already contains
	// the bootstrap prefix (Bootstrap WAL-logs its events), so
	// re-bootstrapping would double-ingest it.
	recovered := false
	if *walDir != "" && *doRecover {
		rep, err := be.Recover()
		if err != nil {
			die(1, fmt.Errorf("recover: %w", err))
		}
		if rep.HasWatermark {
			recovered = true
			fmt.Printf("recovered %d events (checkpoint %d + replay %d, healed %d) to watermark t=%v, weights v%d in %v\n",
				rep.CheckpointEvents+rep.ReplayedEvents-int(rep.Teed), rep.CheckpointEvents, rep.ReplayedEvents,
				rep.HealedEvents, rep.Watermark, rep.WeightVersion, rep.Duration.Round(time.Millisecond))
			if len(rep.Shards) > 0 {
				fmt.Printf("  across %d shards, the counts include %d teed copies\n", len(rep.Shards), rep.Teed)
			}
			for i, sr := range rep.Shards {
				fmt.Printf("  shard %d: checkpoint %d + replay %d (healed %d), watermark t=%v\n",
					i, sr.CheckpointEvents, sr.ReplayedEvents, sr.HealedEvents, sr.Watermark)
			}
		} else {
			fmt.Printf("durable store %s is empty: fresh start\n", *walDir)
		}
	}
	feats := ds.EdgeFeat
	if !recovered && *replFrom == "" {
		if err := be.Bootstrap(ds.Graph.Events[:ds.TrainEnd], feats.SliceRows(ds.TrainEnd)); err != nil {
			die(1, fmt.Errorf("bootstrap: %w", err))
		}
		wm, _ := be.Watermark()
		fmt.Printf("bootstrapped %d events (watermark t=%v)\n", ds.TrainEnd, wm)
	}
	if *replay && !recovered {
		for i := ds.TrainEnd; i < len(ds.Graph.Events); i++ {
			ev := ds.Graph.Events[i]
			var row []float64
			if feats.Cols > 0 {
				row = feats.Row(i)
			}
			if err := be.Ingest(ev.Src, ev.Dst, ev.Time, row); err != nil {
				die(1, fmt.Errorf("replay: %w", err))
			}
		}
		// Serve the replayed tail immediately.
		if fleet != nil {
			fleet.PublishSnapshot()
		} else {
			engine.PublishSnapshot()
		}
		wm, _ := be.Watermark()
		fmt.Printf("replayed to watermark t=%v\n", wm)
	}

	// Follower: catch up from the leader's checkpoint (on top of whatever the
	// local durable store already recovered), then tail its WAL. The dataset
	// bootstrap above is skipped — the stream, training split included,
	// arrives from the leader, so the two states stay bitwise-equal.
	var follower *replica.Follower
	if *replFrom != "" {
		follower, err = replica.StartFollower(replica.FollowerConfig{
			Engine: engine, Leader: *replFrom,
			FailoverAfter: *failover, LagThreshold: *lagBound,
		})
		if err != nil {
			die(1, fmt.Errorf("replicate: %w", err))
		}
		st := follower.Status()
		fmt.Printf("replicating from %s: %d events applied at start (leader synced %d)\n",
			*replFrom, st.Applied, st.LeaderSeq)
		if *promote {
			follower.Promote()
			fmt.Println("promoted: this node is now the writable leader")
		}
	}

	var tuner *finetune.Tuner
	if *ftOn {
		tuner, err = finetune.New(finetune.Config{
			Engine: engine, Model: tr.Model, Pred: tr.Pred,
			NodeFeat: ds.NodeFeat, EdgeDim: ds.Spec.EdgeDim,
			NumNodes: ds.Spec.NumNodes, NumSrc: ds.Spec.NumSrc,
			Budget: *n, Policy: sampler.MostRecent,
			Interval: *ftInterval, ReplayWindow: *ftWindow,
			LR: *ftLR, Seed: *seed,
		})
		if err != nil {
			die(1, fmt.Errorf("finetune: %w", err))
		}
		tuner.Start()
		fmt.Println("online fine-tuner attached (weights publish lock-free into serving)")
	}

	// Serve until SIGINT/SIGTERM, then drain: stop accepting connections,
	// finish in-flight handlers, and only then close the tuner and backend so
	// every accepted micro-batch is served. A bare http.ListenAndServe would
	// block until process kill and the deferred closes would never run.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	hc := serve.HandlerConfig{}
	if follower != nil {
		hc.LeaderURL = func() string { return *replFrom }
		hc.Replication = follower.ReplicationStats
		hc.Health = follower.Healthy
	}
	mux := http.NewServeMux()
	mux.Handle("/", serve.NewHandlerConfig(be, hc))
	if follower != nil {
		mux.HandleFunc("POST /v1/repl/promote", func(w http.ResponseWriter, r *http.Request) {
			follower.Promote()
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprintln(w, `{"promoted":true}`)
		})
	}
	var replSrv *http.Server
	if *walDir != "" && engine != nil {
		// A durable engine is a shippable log: mount the leader endpoints so
		// replicas (and, after a promotion, the demoted ex-leader) can tail
		// it. A fleet ships no single log — each shard has its own.
		leader, err := replica.NewLeader(engine)
		if err != nil {
			die(1, err)
		}
		if *replListen != "" {
			replSrv = &http.Server{Addr: *replListen, Handler: leader.Handler(), ReadHeaderTimeout: readHeaderTimeout}
			go func() {
				if err := replSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
					fmt.Fprintf(os.Stderr, "taser-serve: repl listener: %v\n", err)
				}
			}()
			fmt.Printf("replication endpoints on %s\n", *replListen)
		} else {
			mux.Handle("GET /v1/repl/", leader.Handler())
		}
	}
	srv := &http.Server{Addr: *addr, Handler: mux, ReadHeaderTimeout: readHeaderTimeout}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Printf("serving on %s\n", *addr)

	shutdown := func() {
		if follower != nil {
			follower.Close() // stop tailing before the engine goes away
			st := follower.Status()
			fmt.Printf("replication: state %v, %d applied (leader synced %d, lag %d), %d polls (%d fault, %d dup)\n",
				st.State, st.Applied, st.LeaderSeq, st.Lag, st.Polls, st.FaultPolls, st.DupRecords)
		}
		if replSrv != nil {
			_ = replSrv.Close()
		}
		if tuner != nil {
			tuner.Close()
			st := tuner.Stats()
			fmt.Printf("fine-tuner: %d rounds, %d steps, %d events, published v%d (last loss %.4f)\n",
				st.Rounds, st.Steps, st.Events, st.Published, st.LastLoss)
			if st.Failed != "" {
				fmt.Fprintf(os.Stderr, "taser-serve: fine-tuner stopped early: %s\n", st.Failed)
			}
		}
		be.Close() // drains in-flight ops, flushes the WAL(s) and writes the final checkpoint(s)
		var st serve.Stats
		if fleet != nil {
			fs := fleet.Stats()
			fmt.Printf("fleet: %d distinct events (+%d teed), %d requests (%d cross-shard, %d gather retries)\n",
				fs.Events, fs.Teed, fs.Requests, fs.CrossShard, fs.GatherRetries)
			for _, ss := range fs.Shards {
				fmt.Printf("  shard %d: %d events, %d requests, snapshot v%d\n", ss.Shard, ss.Events, ss.Requests, ss.SnapshotVersion)
			}
			st = fs.Stats
		} else {
			st = engine.Stats()
		}
		if st.Durable {
			fmt.Printf("durable store: %d events logged (%d synced, %d fsync batches, %d segments), %d checkpoints (last covers %d events, %d failed)\n",
				st.WALAppended, st.WALSynced, st.WALSyncs, st.WALSegments,
				st.Checkpoints, st.CheckpointEvents, st.CheckpointFails)
		}
	}
	select {
	case err := <-errc: // listener failed before any signal
		shutdown()
		die(1, err)
	case <-ctx.Done():
	}
	stop() // restore default signal handling: a second ^C kills immediately
	fmt.Println("shutting down: draining HTTP connections, the fine-tuner and the backend")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		fmt.Fprintf(os.Stderr, "taser-serve: shutdown: %v\n", err)
	}
	shutdown()
	fmt.Println("bye")
}

// flagValues carries the parsed flag combination validateFlags reasons over
// (a struct so the table test can enumerate combinations without a flag set).
type flagValues struct {
	walDir, replFrom, replListen string
	promote, ftOn, replay        bool
	shards                       int
	model                        string
	sloP99, ovInterval           time.Duration
	maxQueue, ovCap              int
}

// validateFlags fails fast on contradictory flag combinations instead of
// letting them surface as confusing runtime behavior (a -checkpoint-every
// that silently does nothing, a -promote with no leader to catch up from).
// explicit marks flags the user set on the command line — a knob explicitly
// set to a value that disables it (-slo-p99 0) is a contradiction, while the
// same value as a default is simply off.
func validateFlags(v flagValues, explicit map[string]bool) error {
	fail := fmt.Errorf
	if v.shards < 1 {
		return fail("-shards must be at least 1, got %d", v.shards)
	}
	if v.shards > 1 {
		// The sharded plane composes with durability (per-shard WALs) but not
		// yet with replication or online fine-tuning — those wrap a single
		// engine; DESIGN.md §12 explains why they will compose per-shard.
		if v.replFrom != "" {
			return fail("-shards %d cannot combine with -replicate-from: replication wraps a single engine (per-shard replication is future work)", v.shards)
		}
		if v.replListen != "" {
			return fail("-shards %d cannot combine with -repl-listen: a fleet does not ship one WAL (each shard has its own)", v.shards)
		}
		if v.promote {
			return fail("-promote requires -replicate-from, which -shards %d excludes", v.shards)
		}
		if v.ftOn {
			return fail("-shards %d cannot combine with -finetune: the fine-tuner tails a single engine's stream", v.shards)
		}
		if v.model != "graphmixer" {
			return fail("-shards %d requires -model graphmixer: the endpoint tee keeps one hop shard-locally complete, multi-hop backbones (%s) would read incomplete neighborhoods", v.shards, v.model)
		}
	}
	if explicit["slo-p99"] && v.sloP99 <= 0 {
		return fail("-slo-p99 must be a positive duration, got %v", v.sloP99)
	}
	if explicit["max-queue"] && v.maxQueue <= 0 {
		return fail("-max-queue must be positive, got %d (omit the flag to leave admission control off)", v.maxQueue)
	}
	if (explicit["overload-interval"] || v.ovInterval != 0) && v.sloP99 <= 0 {
		return fail("-overload-interval requires -slo-p99 (there is no controller to tick without a target)")
	}
	if (explicit["overload-capacity"] || v.ovCap != 0) && v.maxQueue <= 0 {
		return fail("-overload-capacity requires -max-queue (there is no admission gate without a queue bound)")
	}
	if v.walDir == "" {
		for _, name := range []string{"recover", "wal-sync-every", "checkpoint-every"} {
			if explicit[name] {
				return fail("-%s requires -wal-dir (durability is off without a store directory)", name)
			}
		}
		if v.replListen != "" {
			return fail("-repl-listen requires -wal-dir (a leader ships its WAL; there is no log without one)")
		}
	}
	if v.replFrom == "" {
		if v.promote {
			return fail("-promote requires -replicate-from (only a replica can be promoted)")
		}
		for _, name := range []string{"failover-after", "lag-threshold"} {
			if explicit[name] {
				return fail("-%s requires -replicate-from", name)
			}
		}
		return nil
	}
	if v.ftOn {
		return fail("-finetune cannot run on a replica: weights replicate from the leader's checkpoints")
	}
	if v.replay {
		return fail("-replay cannot run on a replica: the stream arrives from the leader")
	}
	return nil
}
