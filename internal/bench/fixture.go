package bench

import (
	"os"
	"time"

	"taser/internal/datasets"
	"taser/internal/mathx"
	"taser/internal/sampler"
	"taser/internal/serve"
	"taser/internal/train"
)

// servingFixture is what the serving experiments (finetune, recover,
// replicate, overload) share: one dataset, a TGAT trainer over it with the
// deterministic most-recent policy serving uses, and engines built from that
// model with one batching profile.
type servingFixture struct {
	o   Options
	ds  *datasets.Dataset
	tr  *train.Trainer
	rng *mathx.RNG // feed's stream
}

// newServingFixture builds the trainer without training it: recovery,
// replication and overload timings do not depend on the weights, and
// finetune runs its own epochs.
func newServingFixture(o Options) (*servingFixture, error) {
	ds := o.loadDatasets([]string{"wikipedia"})[0]
	tr, err := o.trainer(ds, train.ModelTGAT, func(c *train.Config) {
		c.FinderPolicy, c.CacheRatio = "recent", 0
	})
	if err != nil {
		return nil, err
	}
	return &servingFixture{o: o, ds: ds, tr: tr, rng: mathx.NewRNG(o.Seed ^ 0x5ec0fe4)}, nil
}

// engine builds a serving engine over the fixture's model; tune (optional)
// adjusts the shared config — durability, overload plane, cache, batching.
func (f *servingFixture) engine(tune func(*serve.Config)) (*serve.Engine, error) {
	cfg := serve.Config{
		Model: f.tr.Model, Pred: f.tr.Pred,
		NumNodes: f.ds.Spec.NumNodes, NodeFeat: f.ds.NodeFeat, EdgeDim: f.ds.Spec.EdgeDim,
		Budget: f.tr.Cfg.N, Policy: sampler.MostRecent,
		MaxBatch: 32, MaxWait: 500 * time.Microsecond, // a bound on one gather; no request here waits it out
		SnapshotEvery: 128, Seed: f.o.Seed,
	}
	if tune != nil {
		tune(&cfg)
	}
	return serve.New(cfg)
}

// durableEngine is engine with a WAL store.
func (f *servingFixture) durableEngine(dur serve.Durability) (*serve.Engine, error) {
	return f.engine(func(c *serve.Config) { c.Durability = dur })
}

// tempStore is durableEngine over a fresh temporary directory, group commit
// every 64 events; cleanup closes the engine and removes the directory.
func (f *servingFixture) tempStore() (*serve.Engine, func(), error) {
	dir, err := os.MkdirTemp("", "taser-bench-*")
	if err != nil {
		return nil, nil, err
	}
	e, err := f.durableEngine(serve.Durability{Dir: dir, SyncEvery: 64})
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, err
	}
	return e, func() { e.Close(); os.RemoveAll(dir) }, nil
}

// bootstrap loads the training split into e, as taser-serve does at start.
func (f *servingFixture) bootstrap(e *serve.Engine) error {
	return e.Bootstrap(f.ds.Graph.Events[:f.ds.TrainEnd], f.ds.EdgeFeat.SliceRows(f.ds.TrainEnd))
}

// feed streams n synthetic chronological events (uniform endpoints,
// zero-filled edge features) into e from its watermark on, stopping at the
// first rejection.
func (f *servingFixture) feed(e *serve.Engine, n int) error {
	numNodes := f.ds.Spec.NumNodes
	tm, _ := e.Watermark()
	for i := 0; i < n; i++ {
		tm += f.rng.Float64()
		if err := e.Ingest(int32(f.rng.Intn(numNodes)), int32(f.rng.Intn(numNodes)), tm, nil); err != nil {
			return err
		}
	}
	return nil
}
