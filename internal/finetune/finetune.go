// Package finetune is TASER's continual-learning subsystem: it closes the
// loop between the online serving engine's ingest stream and the model that
// serves it. A frozen pretrained model drifts away from the distribution an
// unbounded stream feeds it; the Tuner tails the engine's incremental
// snapshots (tgraph.Tailer over the structurally shared event list),
// fine-tunes its own clone of the model on the freshest events through the
// pooled minibatch build path and arena-backed graphs the trainer uses
// (train.FineTuner), and publishes each round's parameters back into serving
// as an immutable versioned models.WeightSet swapped in by atomic pointer
// (serve.Engine.PublishWeights) — so fine-tuning never blocks prediction and
// every served micro-batch runs under exactly one weight version. See
// DESIGN.md §8 for the lifecycle and consistency bounds.
//
// When the engine is durable (serve.Durability, DESIGN.md §9), each accepted
// publication also writes a checkpoint pairing the fine-tuned weights with
// the stream prefix they serve, so a restarted engine recovers straight to
// the latest fine-tuned version instead of the pretrained weights; the Tuner
// needs no changes for this — checkpoint failures are absorbed by the engine
// (counted in serve.Stats) and never surface through PublishWeights.
package finetune

import (
	"cmp"
	"fmt"
	"sync"
	"time"

	"taser/internal/models"
	"taser/internal/serve"
	"taser/internal/tgraph"
	"taser/internal/train"
)

// Config wires a Tuner to a serving engine. What the engine already knows —
// node features, edge width, id space, sampling budget and policy — is read
// from it (serve.Engine.Config), not repeated here. Model and Pred are the
// architecture the engine serves, and the starting weights while it has
// published none; they are cloned internally and never mutated (the engine's
// own pair cannot be cloned instead: its scheduler writes it).
type Config struct {
	Engine *serve.Engine
	Model  models.TGNN
	Pred   *models.EdgePredictor

	NumSrc int // bipartite: negatives drawn from [NumSrc, NumNodes); 0 = any node

	Interval     time.Duration // round cadence (default 250ms)
	ReplayWindow int           // freshest events replayed per round (default 2048)
	BatchSize    int           // events per fine-tune step (default 128)
	Passes       int           // optimizer passes over each round's window (default 1; >1 = experience replay)
	LR           float64       // default 1e-4 (train.FineTuner's default)

	Seed uint64
}

// Validate rejects values no run can mean: a negative (or NaN) cadence, count
// or rate — zero selects the default. New calls it; cmd/taser-serve calls it
// first, so a bad flag is a usage error and not a panic in time.NewTicker or
// a quiet gradient ascent after pretraining.
func (c Config) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"Interval", float64(c.Interval)}, {"ReplayWindow", float64(c.ReplayWindow)},
		{"BatchSize", float64(c.BatchSize)}, {"Passes", float64(c.Passes)}, {"LR", c.LR},
	} {
		if !(f.v >= 0) {
			return fmt.Errorf("finetune: Config.%s must not be negative (got %v)", f.name, f.v)
		}
	}
	return nil
}

// Report summarizes one fine-tune round.
type Report struct {
	Events    int     // events trained on this round
	Steps     int     // optimizer steps taken
	Skipped   int     // backlog events dropped by the replay-window cap
	Loss      float64 // last step's batch loss
	Published uint64  // weight version published (0 when the round was idle)
}

// Stats is a point-in-time summary of the tuner.
type Stats struct {
	Rounds    uint64  // rounds that ran (idle rounds included)
	Steps     uint64  // total optimizer steps
	Events    uint64  // total events trained on
	Skipped   uint64  // total backlog events dropped
	Published uint64  // latest published weight version (0 before the first)
	LastLoss  float64 // last step's batch loss
	// Failed is non-empty when the background loop stopped on an error
	// (engine/architecture mismatches no later round can repair): continual
	// learning is no longer running and serving is drifting on its last
	// published weights. Callers surfacing Stats should surface this.
	Failed string
}

// Tuner runs the continual-learning loop against one engine. Rounds execute
// on a single goroutine (the background loop started by Start, or the
// caller's via RunOnce — both serialize on an internal mutex), which is what
// the single-owner contracts of the underlying FineTuner/InferenceBuilder
// require.
type Tuner struct {
	cfg  Config
	ft   *train.FineTuner
	tail tgraph.Tailer

	runMu       sync.Mutex // serializes rounds (background loop vs RunOnce)
	snapVersion uint64     // snapshot the builder is currently bound to
	nextVersion uint64     // next weight version to publish

	statMu sync.Mutex
	stats  Stats

	quit      chan struct{}
	wg        sync.WaitGroup
	startOnce sync.Once
	closeOnce sync.Once
}

// New validates cfg, clones the model pair and binds the build path to the
// engine's current snapshot. The tuner starts where the engine is: from the
// newest weight set the engine has published (a recovered engine republishes
// its checkpointed set, so a restarted tuner resumes from the last fine-tuned
// version instead of discarding it), numbering its first publication past
// both the applied and the published version. The tuner is idle until Start
// (background cadence) or RunOnce (caller-driven rounds).
func New(cfg Config) (*Tuner, error) {
	if cfg.Engine == nil {
		return nil, fmt.Errorf("finetune: Config.Engine is required")
	}
	if cfg.Model == nil || cfg.Pred == nil {
		return nil, fmt.Errorf("finetune: Config.Model and Config.Pred are required")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.Interval = cmp.Or(cfg.Interval, 250*time.Millisecond)
	cfg.ReplayWindow = cmp.Or(cfg.ReplayWindow, 2048)
	cfg.BatchSize = cmp.Or(cfg.BatchSize, 128)
	cfg.Passes = cmp.Or(cfg.Passes, 1)
	ec := cfg.Engine.Config()
	snap := cfg.Engine.Pin()
	ft, err := train.NewFineTuner(train.FineTuneConfig{
		Model: cfg.Model, Pred: cfg.Pred,
		Infer: train.InferConfig{
			TCSR: snap.TCSR, NodeFeat: ec.NodeFeat, EdgeFeat: snap.EdgeFeat,
			Budget: ec.Budget, Policy: ec.Policy, Seed: cfg.Seed,
		},
		LR:       cfg.LR,
		NumNodes: ec.NumNodes, NumSrc: cfg.NumSrc, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	version := cfg.Engine.WeightVersion()
	if ws := cfg.Engine.PublishedWeights(); ws != nil {
		if err := ws.LoadInto(ft.Model(), ft.Pred()); err != nil {
			return nil, fmt.Errorf("finetune: the engine's published weights do not fit Config.Model/Pred: %w", err)
		}
		version = max(version, ws.Version)
	}
	return &Tuner{
		cfg: cfg, ft: ft,
		snapVersion: snap.Version,
		nextVersion: version + 1,
		quit:        make(chan struct{}),
	}, nil
}

// Start launches the background loop: one round every Interval until Close.
func (t *Tuner) Start() {
	t.startOnce.Do(func() {
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			tick := time.NewTicker(t.cfg.Interval)
			defer tick.Stop()
			for {
				select {
				case <-t.quit:
					return
				case <-tick.C:
					if _, err := t.RunOnce(); err != nil {
						// A round can only fail on an engine/architecture
						// mismatch, which no later round can repair; flag
						// the stop so Stats readers can see fine-tuning is
						// no longer live.
						t.statMu.Lock()
						t.stats.Failed = err.Error()
						t.statMu.Unlock()
						return
					}
				}
			}
		}()
	})
}

// Close stops the background loop (if running) and waits for the in-flight
// round to finish. Safe to call multiple times; the engine stays up.
func (t *Tuner) Close() {
	t.closeOnce.Do(func() {
		close(t.quit)
		t.wg.Wait()
	})
}

// RunOnce executes one fine-tune round synchronously: pin the engine's
// latest snapshot, tail the events appended since the previous round (capped
// to the freshest ReplayWindow), take one optimizer step per BatchSize
// events on the tuner's cloned parameters, and publish the result as an
// immutable weight set the serving scheduler swaps in between micro-batches.
// An idle round (no new events) publishes nothing. Callers driving rounds
// manually (benchmarks, tests) get deterministic cadence; Start drives the
// same method on a timer.
func (t *Tuner) RunOnce() (Report, error) {
	t.runMu.Lock()
	defer t.runMu.Unlock()

	snap := t.cfg.Engine.Pin()
	events, skipped, err := t.tail.NextWindow(snap.Graph, t.cfg.ReplayWindow)
	if err != nil {
		return Report{}, err
	}
	rep := Report{Events: len(events), Skipped: skipped}
	if len(events) == 0 {
		t.note(rep)
		return rep, nil
	}
	if snap.Version != t.snapVersion {
		if err := t.ft.SwapGraph(snap.TCSR, snap.EdgeFeat); err != nil {
			return Report{}, err
		}
		t.snapVersion = snap.Version
	}
	for pass := 0; pass < t.cfg.Passes; pass++ {
		for lo := 0; lo < len(events); lo += t.cfg.BatchSize {
			hi := min(lo+t.cfg.BatchSize, len(events))
			rep.Loss = t.ft.Step(events[lo:hi], nil)
			rep.Steps++
		}
	}
	ws := t.ft.Capture(t.nextVersion)
	if err := t.cfg.Engine.PublishWeights(ws); err != nil {
		return Report{}, err
	}
	rep.Published = t.nextVersion
	t.nextVersion++
	t.note(rep)
	return rep, nil
}

// note folds a round's report into the cumulative stats.
func (t *Tuner) note(rep Report) {
	t.statMu.Lock()
	defer t.statMu.Unlock()
	t.stats.Rounds++
	t.stats.Steps += uint64(rep.Steps)
	t.stats.Events += uint64(rep.Events)
	t.stats.Skipped += uint64(rep.Skipped)
	if rep.Published > 0 {
		t.stats.Published = rep.Published
		t.stats.LastLoss = rep.Loss
	}
}

// Stats snapshots the tuner's counters.
func (t *Tuner) Stats() Stats {
	t.statMu.Lock()
	defer t.statMu.Unlock()
	return t.stats
}
