package bench

import (
	"fmt"

	"taser/internal/datasets"
	"taser/internal/train"
)

// table1Variants are Table I's rows in paper order.
var table1Variants = []variant{
	{"Baseline", nil},
	{"w/ Ada. Mini-Batch", func(c *train.Config) { c.AdaBatch = true }},
	{"w/ Ada. Neighbor", func(c *train.Config) { c.AdaNeighbor = true }},
	{"TASER", taser},
}

// table1 reproduces Table I: test MRR of the four sampling variants on every
// dataset for both backbones. The paper's finding to reproduce is the
// *ordering* — each adaptive component alone beats the baseline, and TASER
// (both combined) is at least as good — not the absolute numbers (our
// datasets are synthetic and ~100× smaller).
func table1(o Options) (string, []Row, error) {
	title := fmt.Sprintf("Table I — accuracy (test MRR, %d negatives) | scale=%.2f epochs=%d seed=%d",
		49, o.Scale, o.Epochs, o.Seed)
	rows, err := o.accuracyGrid(datasets.Names(), backbones, table1Variants)
	// (Improvement) = TASER − Baseline, per dataset and backbone.
	base := map[[2]string]float64{}
	for _, r := range rows {
		switch r.Variant {
		case "Baseline":
			base[[2]string{r.Group, r.Metric}] = r.Value
		case "TASER":
			rows = append(rows, Row{r.Group, "(Improvement)", r.Metric, r.Value - base[[2]string{r.Group, r.Metric}], "ΔMRR"})
		}
	}
	return title, rows, err
}

// table2 reproduces Table II: the dataset statistics, then three structural
// diagnostics the paper does not list — the share of injected noise events,
// and the mean and maximum temporal degree (events incident to a node).
func table2(o Options) (string, []Row, error) {
	title := fmt.Sprintf("Table II — dataset statistics (scale=%.2f, ~100× below the paper)", o.Scale)
	var rows []Row
	for _, ds := range o.loadDatasets(datasets.Names()) {
		for _, c := range []struct {
			metric string
			n      int
		}{
			{"|V|", ds.Spec.NumNodes}, {"|E|", len(ds.Graph.Events)},
			{"dv", ds.Spec.NodeDim}, {"de", ds.Spec.EdgeDim},
			{"train", ds.TrainEvents()}, {"val", ds.ValEvents()}, {"test", ds.TestEvents()},
		} {
			rows = append(rows, Row{"", ds.Spec.Name, c.metric, float64(c.n), ""})
		}
		noisy := 0
		for _, b := range ds.Noise {
			if b {
				noisy++
			}
		}
		maxDeg := 0
		for v := int32(0); int(v) < ds.Spec.NumNodes; v++ {
			maxDeg = max(maxDeg, ds.TCSR.Degree(v))
		}
		rows = append(rows,
			Row{"", ds.Spec.Name, "noise", 100 * float64(noisy) / float64(len(ds.Noise)), "%"},
			Row{"", ds.Spec.Name, "mean deg", float64(2*len(ds.Graph.Events)) / float64(ds.Spec.NumNodes), "events"},
			Row{"", ds.Spec.Name, "max deg", float64(maxDeg), ""})
	}
	return title, rows, nil
}
