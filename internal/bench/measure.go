package bench

import (
	"time"

	"taser/internal/datasets"
	"taser/internal/train"
)

// The trained paper experiments are grids of variants over two measurements,
// accuracy and measuredEpoch; both build their trainer here.

// variant is one cell of an experiment's grid: its label and what it changes
// in baseConfig (nil = nothing).
type variant struct {
	name string
	set  func(*train.Config)
}

var backbones = []train.ModelKind{train.ModelTGAT, train.ModelGraphMixer}

// taser turns both adaptive components on.
func taser(c *train.Config) { c.AdaBatch, c.AdaNeighbor = true, true }

// group labels a table by the dataset that was generated and the model that
// is trained on it.
func group(ds *datasets.Dataset, model train.ModelKind) string {
	return ds.Spec.Name + " / " + string(model)
}

func (o Options) trainer(ds *datasets.Dataset, model train.ModelKind, set func(*train.Config)) (*train.Trainer, error) {
	cfg := o.baseConfig(model)
	if set != nil {
		set(&cfg)
	}
	return train.New(cfg, ds)
}

// accuracy trains to completion and returns the test MRR.
func (o Options) accuracy(ds *datasets.Dataset, model train.ModelKind, set func(*train.Config)) (float64, error) {
	tr, err := o.trainer(ds, model, set)
	if err != nil {
		return 0, err
	}
	_, _, test := tr.Run()
	return test, nil
}

// accuracyGrid trains every variant with every model on every dataset and
// returns one MRR row per cell: a table per dataset, a column per model.
func (o Options) accuracyGrid(def []string, models []train.ModelKind, variants []variant) ([]Row, error) {
	var rows []Row
	for _, ds := range o.loadDatasets(def) {
		for _, v := range variants {
			for _, model := range models {
				mrr, err := o.accuracy(ds, model, v.set)
				if err != nil {
					return nil, err
				}
				rows = append(rows, Row{ds.Spec.Name, v.name, string(model), mrr, "MRR"})
			}
		}
	}
	return rows, nil
}

// epochStats is one measured epoch: Table III's phases, the modeled
// PCIe/VRAM transfer time inside fs and, when an edge cache is configured,
// its hit rate over that epoch.
type epochStats struct {
	nf, as, fs, pp time.Duration
	fsModeled      time.Duration
	hitRate        float64
}

func (s epochStats) total() time.Duration { return s.nf + s.as + s.fs + s.pp }

// measuredEpoch is Table III's timing protocol: warm epochs (they train the
// cache, Algorithm 3), every counter reset, then one measured epoch.
func (o Options) measuredEpoch(ds *datasets.Dataset, model train.ModelKind, warm int, set func(*train.Config)) (epochStats, error) {
	tr, err := o.trainer(ds, model, set)
	if err != nil {
		return epochStats{}, err
	}
	for i := 0; i < warm; i++ {
		tr.TrainEpoch()
	}
	pol := tr.EdgeStore.Policy()
	tr.Timer.Reset()
	tr.Xfer.Reset()
	if pol != nil {
		pol.ResetStats()
	}
	modeled := tr.ModeledFS()
	tr.TrainEpoch()
	s := epochStats{
		nf: tr.Timer.Get("NF"), as: tr.Timer.Get("AS"),
		fs: tr.Timer.Get("FS"), pp: tr.Timer.Get("PP"),
		fsModeled: tr.ModeledFS() - modeled,
	}
	if pol != nil {
		s.hitRate = pol.HitRate()
	}
	return s, nil
}
