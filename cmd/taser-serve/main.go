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
// Flags (`taser-serve -h` lists them): each is bound straight into the field
// of the train, serve, finetune or replica config it sets (options.bind), and
// each value rule is that config's Validate; the command adds only the
// combinations no single config can see (options.validate). A usage error
// exits 2 before the first pretraining epoch.
//
// Sharding: -shards K (K > 1, requires -model graphmixer) partitions the node
// space across K engines by a hash of the node id. Ingest routes each
// event to the shard owning its destination (teed to the source's owner when
// that differs), prediction scatter/gathers across shards when the endpoints
// hash apart, and -wal-dir gives every shard its own store directory
// (<dir>/shard-0..K-1) with independent recovery. /v1/stats reports merged
// totals plus a per-shard block each. Sharding excludes -replicate-from,
// -repl-listen, -promote and -finetune (single-engine features; DESIGN.md §13
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
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"taser/internal/datasets"
	"taser/internal/finetune"
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

// options is everything the command line decides. The subsystem configs are
// the flags' destinations, not copies of them: a flag has no other home, so
// there is nothing to keep in step. What run learns later (the trained model,
// the dataset's shapes, the engine) is filled into the same values.
type options struct {
	train    train.Config
	serve    serve.Config
	finetune finetune.Config
	follower replica.FollowerConfig

	dataset    string
	scale      float64
	addr       string
	shards     int
	replay     bool
	recover    bool
	finetuneOn bool
	replListen string
	promote    bool
}

// bind defines every flag, each with the field it sets.
func (o *options) bind(fs *flag.FlagSet) {
	// What no flag chooses: serving needs a deterministic neighborhood.
	o.train.Finder, o.train.FinderPolicy = train.FinderGPU, "recent"
	o.serve.Policy = sampler.MostRecent

	fs.StringVar(&o.dataset, "dataset", "wikipedia", "dataset: "+strings.Join(datasets.Names(), "|"))
	fs.Float64Var(&o.scale, "scale", 0.1, "dataset scale multiplier")
	fs.StringVar((*string)(&o.train.Model), "model", "tgat", "backbone: tgat|graphmixer")
	fs.IntVar(&o.train.Epochs, "epochs", 2, "offline pretraining epochs")
	fs.IntVar(&o.train.Hidden, "hidden", 24, "hidden dimension")
	fs.IntVar(&o.train.BatchSize, "batch", 150, "pretraining batch size")
	fs.IntVar(&o.train.N, "n", 10, "supporting neighbors per hop")
	fs.Uint64Var(&o.train.Seed, "seed", 42, "random seed")
	fs.StringVar(&o.addr, "addr", ":8080", "listen address")
	fs.IntVar(&o.shards, "shards", 1, "serving shards: partition the node space across K engines by a hash of the node id (requires -model graphmixer for K>1)")
	fs.IntVar(&o.serve.MaxBatch, "max-batch", 32, "max roots per serving micro-batch")
	fs.IntVar(&o.serve.CacheSize, "emb-cache", 4096, "embedding-cache capacity in nodes (0 disables)")
	fs.IntVar(&o.serve.SnapshotEvery, "snapshot-every", 256, "publish a snapshot every k ingested events")
	fs.BoolVar(&o.replay, "replay", false, "replay the val/test split through ingest at startup")

	dur := &o.serve.Durability
	fs.StringVar(&dur.Dir, "wal-dir", "", "durable store directory: WAL + checkpoints (empty = durability off)")
	fs.IntVar(&dur.SyncEvery, "wal-sync-every", 0, "events per WAL group commit (0 = serve default 64; 1 = fsync every event)")
	fs.IntVar(&dur.CheckpointEvery, "checkpoint-every", 0, "events between periodic checkpoints (0 = only on weight publication, bootstrap and shutdown)")
	fs.BoolVar(&o.recover, "recover", true, "recover the stream from -wal-dir at startup (checkpoint + WAL replay)")

	fs.BoolVar(&o.finetuneOn, "finetune", false, "attach the online fine-tuner (continual learning from the ingest stream)")
	fs.DurationVar(&o.finetune.Interval, "finetune-interval", 0, "fine-tune round cadence (0 = finetune default)")
	fs.IntVar(&o.finetune.ReplayWindow, "replay-window", 0, "recent events replayed per fine-tune round (0 = finetune default)")
	fs.Float64Var(&o.finetune.LR, "finetune-lr", 0, "fine-tuning learning rate (0 = finetune default)")

	ov := &o.serve.Overload
	fs.IntVar(&ov.MaxQueue, "max-queue", 0, "bounded admission: waiters per priority lane before shedding with 429 (0 = admission off)")
	fs.IntVar(&ov.Capacity, "overload-capacity", 0, "concurrent requests admitted across lanes (0 = default 2×-max-batch; requires -max-queue)")

	fs.StringVar(&o.follower.Leader, "replicate-from", "", "run as a read replica tailing this leader base URL (e.g. http://host:8080)")
	fs.StringVar(&o.replListen, "repl-listen", "", "serve the replication endpoints on a dedicated address (default: mounted under /v1/repl/ on -addr)")
	fs.BoolVar(&o.promote, "promote", false, "promote immediately after catching up (replica takes over as leader)")
	fs.DurationVar(&o.follower.FailoverAfter, "failover-after", 0, "auto-promote after this much leader silence (0 = manual promotion only)")
	fs.Uint64Var(&o.follower.LagThreshold, "lag-threshold", 0, "replication lag above which /v1/healthz reports unready (0 = replica default)")
}

// validate fails fast on what no single config can see — contradictory flag
// combinations (a -checkpoint-every that silently does nothing, a -promote
// with no leader to catch up from) and a knob explicitly set to the value that
// disables it (-max-queue 0: as a default that is simply off) — and then asks
// the configs that need no model to check their own values. explicit marks
// the flags set on the command line. serve.Config.Validate, which owns every
// serving, durability and overload value, runs as soon as there is a model.
func (o *options) validate(explicit map[string]bool) error {
	fail := fmt.Errorf
	leader, walDir := o.follower.Leader, o.serve.Durability.Dir
	if o.shards < 1 {
		return fail("-shards must be at least 1, got %d", o.shards)
	}
	if o.shards > 1 {
		// The sharded plane composes with durability (per-shard WALs) but not
		// yet with replication or online fine-tuning — those wrap a single
		// engine; DESIGN.md §13 explains why they will compose per-shard.
		switch {
		case leader != "":
			return fail("-shards %d cannot combine with -replicate-from: replication wraps a single engine (per-shard replication is future work)", o.shards)
		case o.replListen != "":
			return fail("-shards %d cannot combine with -repl-listen: a fleet does not ship one WAL (each shard has its own)", o.shards)
		case o.finetuneOn:
			return fail("-shards %d cannot combine with -finetune: the fine-tuner tails a single engine's stream", o.shards)
		case o.train.Model != train.ModelGraphMixer:
			return fail("-shards %d requires -model graphmixer: the endpoint tee keeps one hop shard-locally complete, multi-hop backbones (%s) would read incomplete neighborhoods", o.shards, o.train.Model)
		}
	}
	if explicit["max-queue"] && o.serve.Overload.MaxQueue <= 0 {
		return fail("-max-queue must be positive, got %d (omit the flag to leave admission control off)", o.serve.Overload.MaxQueue)
	}
	if walDir == "" {
		for _, name := range []string{"recover", "wal-sync-every", "checkpoint-every"} {
			if explicit[name] {
				return fail("-%s requires -wal-dir (durability is off without a store directory)", name)
			}
		}
		if o.replListen != "" {
			return fail("-repl-listen requires -wal-dir (a leader ships its WAL; there is no log without one)")
		}
	}
	if leader == "" {
		if o.promote {
			return fail("-promote requires -replicate-from (only a replica can be promoted)")
		}
		for _, name := range []string{"failover-after", "lag-threshold"} {
			if explicit[name] {
				return fail("-%s requires -replicate-from", name)
			}
		}
	} else if o.finetuneOn {
		return fail("-finetune cannot run on a replica: weights replicate from the leader's checkpoints")
	} else if o.replay {
		return fail("-replay cannot run on a replica: the stream arrives from the leader")
	}
	if err := o.train.Validate(); err != nil {
		return err
	}
	if err := datasets.CheckScale(o.scale); err != nil {
		return err
	}
	return o.finetune.Validate()
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	context.AfterFunc(ctx, stop) // default signal handling again: a second ^C kills immediately
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its inputs and outputs as parameters: it serves until ctx
// is cancelled, drains, and returns the exit status — 2 for a configuration
// error (caught before any work is done), 1 for a failure of the work itself.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("taser-serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	o.bind(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	explicit := map[string]bool{}
	fs.Visit(func(fl *flag.Flag) { explicit[fl.Name] = true })
	fail := func(code int, err error) int {
		fmt.Fprintf(stderr, "taser-serve: %v\n", err)
		return code
	}
	if err := o.validate(explicit); err != nil {
		return fail(2, err)
	}

	ds, ok := datasets.ByName(o.dataset, o.scale, o.train.Seed)
	if !ok {
		return fail(2, fmt.Errorf("unknown dataset %q", o.dataset))
	}
	fmt.Fprintln(stdout, ds)

	tr, err := train.New(o.train, ds)
	if err != nil {
		return fail(1, err)
	}
	// The model exists now, so the serving config can be checked before the
	// first pretraining epoch instead of after the last.
	o.serve.Model, o.serve.Pred = tr.Model, tr.Pred
	o.serve.NumNodes, o.serve.NodeFeat, o.serve.EdgeDim = ds.Spec.NumNodes, ds.NodeFeat, ds.Spec.EdgeDim
	o.serve.Budget, o.serve.Seed = o.train.N, o.train.Seed
	if err := o.serve.Validate(); err != nil {
		return fail(2, err)
	}
	for e := 0; e < o.train.Epochs; e++ {
		res := tr.TrainEpoch()
		fmt.Fprintf(stdout, "pretrain epoch %2d  loss=%.4f  (%.1fs)\n", e+1, res.MeanLoss, res.Duration.Seconds())
	}

	// One backend, either shape. Replication and fine-tuning write into a
	// single engine directly, so they attach only when engine is non-nil
	// (validate rejected them for -shards K>1).
	var (
		be     backend
		engine *serve.Engine
		fleet  *serve.Fleet
	)
	if o.shards > 1 {
		fleet, err = serve.NewFleet(serve.FleetConfig{Config: o.serve, Shards: o.shards})
		be = fleet
	} else {
		engine, err = serve.New(o.serve)
		be = engine
	}
	if err != nil {
		return fail(1, err)
	}
	if fleet != nil {
		fmt.Fprintf(stdout, "sharded plane: %d engines, nodes hash-partitioned\n", o.shards)
	}

	// Recover the stream from the durable store when one exists (a fleet
	// recovers every shard from <dir>/shard-i); otherwise bootstrap with the
	// training split. The rest of the stream arrives via /v1/ingest (or
	// -replay for a self-contained demo). A recovered store already contains
	// the bootstrap prefix (Bootstrap WAL-logs its events), so
	// re-bootstrapping would double-ingest it.
	recovered := false
	if walDir := o.serve.Durability.Dir; walDir != "" && o.recover {
		rep, err := be.Recover()
		if err != nil {
			return fail(1, fmt.Errorf("recover: %w", err))
		}
		if rep.HasWatermark {
			recovered = true
			fmt.Fprintf(stdout, "recovered %d events (checkpoint %d + replay %d, healed %d) to watermark t=%v, weights v%d in %v\n",
				rep.CheckpointEvents+rep.ReplayedEvents-int(rep.Teed), rep.CheckpointEvents, rep.ReplayedEvents,
				rep.HealedEvents, rep.Watermark, rep.WeightVersion, rep.Duration.Round(time.Millisecond))
			if len(rep.Shards) > 0 {
				fmt.Fprintf(stdout, "  across %d shards, the counts include %d teed copies\n", len(rep.Shards), rep.Teed)
			}
			for i, sr := range rep.Shards {
				fmt.Fprintf(stdout, "  shard %d: checkpoint %d + replay %d (healed %d), watermark t=%v\n",
					i, sr.CheckpointEvents, sr.ReplayedEvents, sr.HealedEvents, sr.Watermark)
			}
		} else {
			fmt.Fprintf(stdout, "durable store %s is empty: fresh start\n", walDir)
		}
	}
	feats := ds.EdgeFeat
	if !recovered && o.follower.Leader == "" {
		if err := be.Bootstrap(ds.Graph.Events[:ds.TrainEnd], feats.SliceRows(ds.TrainEnd)); err != nil {
			return fail(1, fmt.Errorf("bootstrap: %w", err))
		}
		wm, _ := be.Watermark()
		fmt.Fprintf(stdout, "bootstrapped %d events (watermark t=%v)\n", ds.TrainEnd, wm)
	}
	if o.replay && !recovered {
		for i := ds.TrainEnd; i < len(ds.Graph.Events); i++ {
			ev := ds.Graph.Events[i]
			var row []float64
			if feats.Cols > 0 {
				row = feats.Row(i)
			}
			if err := be.Ingest(ev.Src, ev.Dst, ev.Time, row); err != nil {
				return fail(1, fmt.Errorf("replay: %w", err))
			}
		}
		// Serve the replayed tail immediately.
		if fleet != nil {
			fleet.PublishSnapshot()
		} else {
			engine.PublishSnapshot()
		}
		wm, _ := be.Watermark()
		fmt.Fprintf(stdout, "replayed to watermark t=%v\n", wm)
	}

	// Follower: catch up from the leader's checkpoint (on top of whatever the
	// local durable store already recovered), then tail its WAL. The dataset
	// bootstrap above is skipped — the stream, training split included,
	// arrives from the leader, so the two states stay bitwise-equal.
	var follower *replica.Follower
	if o.follower.Leader != "" {
		o.follower.Engine = engine
		follower, err = replica.StartFollower(o.follower)
		if err != nil {
			return fail(1, fmt.Errorf("replicate: %w", err))
		}
		st := follower.Status()
		fmt.Fprintf(stdout, "replicating from %s: %d events applied at start (leader synced %d)\n",
			o.follower.Leader, st.Applied, st.LeaderSeq)
		if o.promote {
			follower.Promote()
			fmt.Fprintln(stdout, "promoted: this node is now the writable leader")
		}
	}

	var tuner *finetune.Tuner
	if o.finetuneOn {
		o.finetune.Engine, o.finetune.Model, o.finetune.Pred = engine, tr.Model, tr.Pred
		o.finetune.NumSrc, o.finetune.Seed = ds.Spec.NumSrc, o.train.Seed
		tuner, err = finetune.New(o.finetune)
		if err != nil {
			return fail(1, fmt.Errorf("finetune: %w", err))
		}
		tuner.Start()
		fmt.Fprintln(stdout, "online fine-tuner attached (weights publish lock-free into serving)")
	}

	// Serve until ctx is cancelled (SIGINT/SIGTERM), then drain: stop
	// accepting connections, finish in-flight handlers, and only then close
	// the tuner and backend so every accepted micro-batch is served.
	mux := http.NewServeMux()
	hc := serve.HandlerConfig{}
	if follower != nil {
		hc.LeaderURL = func() string { return o.follower.Leader }
		hc.Replication = follower.ReplicationStats
		hc.Health = follower.Healthy
		mux.HandleFunc("POST /v1/repl/promote", func(w http.ResponseWriter, r *http.Request) {
			follower.Promote()
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprintln(w, `{"promoted":true}`)
		})
	}
	mux.Handle("/", serve.NewHandlerConfig(be, hc))
	var replSrv *http.Server
	if o.serve.Durability.Dir != "" && engine != nil {
		// A durable engine is a shippable log: mount the leader endpoints so
		// replicas (and, after a promotion, the demoted ex-leader) can tail
		// it. A fleet ships no single log — each shard has its own.
		leader, err := replica.NewLeader(engine)
		if err != nil {
			return fail(1, err)
		}
		if o.replListen != "" {
			replSrv = &http.Server{Addr: o.replListen, Handler: leader.Handler(), ReadHeaderTimeout: readHeaderTimeout}
			go func() {
				if err := replSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
					fmt.Fprintf(stderr, "taser-serve: repl listener: %v\n", err)
				}
			}()
			fmt.Fprintf(stdout, "replication endpoints on %s\n", o.replListen)
		} else {
			mux.Handle("GET /v1/repl/", leader.Handler())
		}
	}
	srv := &http.Server{Addr: o.addr, Handler: mux, ReadHeaderTimeout: readHeaderTimeout}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Fprintf(stdout, "serving on %s\n", o.addr)

	shutdown := func() {
		if follower != nil {
			follower.Close() // stop tailing before the engine goes away
			st := follower.Status()
			fmt.Fprintf(stdout, "replication: state %v, %d applied (leader synced %d, lag %d), %d polls (%d fault, %d dup)\n",
				st.State, st.Applied, st.LeaderSeq, st.Lag, st.Polls, st.FaultPolls, st.DupRecords)
		}
		if replSrv != nil {
			_ = replSrv.Close()
		}
		if tuner != nil {
			tuner.Close()
			st := tuner.Stats()
			fmt.Fprintf(stdout, "fine-tuner: %d rounds, %d steps, %d events, published v%d (last loss %.4f)\n",
				st.Rounds, st.Steps, st.Events, st.Published, st.LastLoss)
			if st.Failed != "" {
				fmt.Fprintf(stderr, "taser-serve: fine-tuner stopped early: %s\n", st.Failed)
			}
		}
		be.Close() // drains in-flight ops, flushes the WAL(s) and writes the final checkpoint(s)
		var st serve.Stats
		if fleet != nil {
			fs := fleet.Stats()
			fmt.Fprintf(stdout, "fleet: %d distinct events (+%d teed), %d requests (%d cross-shard)\n",
				fs.Events, fs.Teed, fs.Requests, fs.CrossShard)
			for _, ss := range fs.Shards {
				fmt.Fprintf(stdout, "  shard %d: %d events, %d requests, snapshot v%d\n", ss.Shard, ss.Events, ss.Requests, ss.SnapshotVersion)
			}
			st = fs.Stats
		} else {
			st = engine.Stats()
		}
		if st.Durable {
			fmt.Fprintf(stdout, "durable store: %d events logged (%d synced, %d fsync batches, %d segments), %d checkpoints (last covers %d events, %d failed)\n",
				st.WALAppended, st.WALSynced, st.WALSyncs, st.WALSegments,
				st.Checkpoints, st.CheckpointEvents, st.CheckpointFails)
		}
	}
	select {
	case err := <-errc: // listener failed before any signal
		shutdown()
		return fail(1, err)
	case <-ctx.Done():
	}
	fmt.Fprintln(stdout, "shutting down: draining HTTP connections, the fine-tuner and the backend")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		fmt.Fprintf(stderr, "taser-serve: shutdown: %v\n", err)
	}
	shutdown()
	fmt.Fprintln(stdout, "bye")
	return 0
}
