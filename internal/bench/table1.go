package bench

import (
	"fmt"

	"taser/internal/adaptive"
	"taser/internal/train"
)

// table1 reproduces Table I: test MRR of the four sampling variants on every
// dataset for both backbones. The paper's finding to reproduce is the
// *ordering* — each adaptive component alone beats the baseline, and TASER
// (both combined) is at least as good — not the absolute numbers (our
// datasets are synthetic and ~100× smaller).
func table1(o Options) error {
	fmt.Fprintf(o.Out, "Table I — accuracy (test MRR, %d negatives) | scale=%.2f epochs=%d seed=%d\n",
		49, o.Scale, o.Epochs, o.Seed)
	for _, ds := range o.loadDatasets(allNames) {
		fmt.Fprintf(o.Out, "\n%s\n", ds)
		fmt.Fprintf(o.Out, "%-20s %12s %12s\n", "variant", "TGAT", "GraphMixer")
		type cell struct{ tgat, mixer float64 }
		rows := make([]cell, len(Variants()))
		for vi, v := range Variants() {
			for _, model := range []train.ModelKind{train.ModelTGAT, train.ModelGraphMixer} {
				cfg := o.baseConfig(model)
				cfg.AdaBatch, cfg.AdaNeighbor = v.AdaBatch, v.AdaNeighbor
				// The paper pairs TGAT with the GATv2 head and GraphMixer
				// with the linear/Mixer head (§IV-B).
				if model == train.ModelTGAT {
					cfg.Decoder = adaptive.DecoderGATv2
				} else {
					cfg.Decoder = adaptive.DecoderLinear
				}
				tr, err := train.New(cfg, ds)
				if err != nil {
					return err
				}
				_, _, test := tr.Run()
				if model == train.ModelTGAT {
					rows[vi].tgat = test
				} else {
					rows[vi].mixer = test
				}
			}
		}
		for vi, v := range Variants() {
			fmt.Fprintf(o.Out, "%-20s %12.4f %12.4f\n", v.Name, rows[vi].tgat, rows[vi].mixer)
		}
		fmt.Fprintf(o.Out, "%-20s %+12.4f %+12.4f\n", "(Improvement)",
			rows[3].tgat-rows[0].tgat, rows[3].mixer-rows[0].mixer)
	}
	return nil
}

// table2 reproduces Table II: the dataset statistics.
func table2(o Options) error {
	fmt.Fprintf(o.Out, "Table II — dataset statistics (scale=%.2f, ~100× below the paper)\n", o.Scale)
	for _, ds := range o.loadDatasets(allNames) {
		fmt.Fprintln(o.Out, ds)
	}
	return nil
}
