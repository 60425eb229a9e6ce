package bench

import (
	"fmt"
	"time"

	"taser/internal/adaptive"
	"taser/internal/train"
)

// table3Row is one optimization level of Table III.
type table3Row struct {
	name       string
	finder     train.FinderKind
	cacheRatio float64
}

func table3Rows() []table3Row {
	return []table3Row{
		{"Baseline", train.FinderOrigin, 0},
		{"+GPU NF", train.FinderGPU, 0},
		{"+10% Cache", train.FinderGPU, 0.10},
		{"+20% Cache", train.FinderGPU, 0.20},
		{"+30% Cache", train.FinderGPU, 0.30},
	}
}

// table3 reproduces Table III: the per-epoch runtime breakdown (NF, AS, FS,
// PP) of the full TASER pipeline as the system optimizations are stacked:
// original neighbor finder → GPU finder → GPU finder + 10/20/30% feature
// cache. The shape to reproduce: NF dominant in the baseline, reduced to ~0
// by the GPU finder; FS reduced severalfold by the cache; total speedups
// larger for TGAT (2 hops) than GraphMixer (1 hop).
//
// Timing protocol: one warm-up epoch (trains the cache, Algorithm 3), then
// one measured epoch. Both adaptive components are on, as in the paper.
func table3(o Options) error {
	fmt.Fprintf(o.Out, "Table III — per-epoch runtime breakdown (sec) | scale=%.2f seed=%d\n", o.Scale, o.Seed)
	// The paper omits Flights (no edge features to cache).
	def := []string{"wikipedia", "reddit", "movielens", "gdelt"}
	for _, ds := range o.loadDatasets(def) {
		for _, model := range []train.ModelKind{train.ModelTGAT, train.ModelGraphMixer} {
			fmt.Fprintf(o.Out, "\n%s / %s\n", ds.Spec.Name, model)
			fmt.Fprintf(o.Out, "%-12s %8s %8s %8s %8s %9s %9s\n",
				"config", "NF", "AS", "FS", "PP", "total", "speedup")
			var baseTotal time.Duration
			for _, row := range table3Rows() {
				cfg := o.baseConfig(model)
				cfg.Finder = row.finder
				cfg.CacheRatio = row.cacheRatio
				cfg.AdaBatch, cfg.AdaNeighbor = true, true
				cfg.Decoder = adaptive.DecoderGATv2
				if model == train.ModelGraphMixer {
					cfg.Decoder = adaptive.DecoderLinear
				}
				cfg.Epochs = 1
				tr, err := train.New(cfg, ds)
				if err != nil {
					return err
				}
				tr.TrainEpoch() // warm-up epoch (cache training)
				tr.Timer.Reset()
				tr.Xfer.Reset()
				tr.TrainEpoch() // measured epoch
				nf, as := tr.Timer.Get("NF"), tr.Timer.Get("AS")
				fs, pp := tr.Timer.Get("FS"), tr.Timer.Get("PP")
				total := nf + as + fs + pp
				if row.name == "Baseline" {
					baseTotal = total
				}
				speedup := float64(baseTotal) / float64(total)
				fmt.Fprintf(o.Out, "%-12s %8.3f %8.3f %8.3f %8.3f %9.3f %8.2fx\n",
					row.name, nf.Seconds(), as.Seconds(), fs.Seconds(), pp.Seconds(),
					total.Seconds(), speedup)
			}
		}
	}
	return nil
}

// fig1 reproduces Figure 1: the per-epoch runtime of baseline TGAT split
// into mini-batch generation (Prep = NF + FS) and propagation (Prop = PP) as
// the number of neighbors per layer grows. The shape to reproduce: Prep
// grows much faster than Prop and dominates the epoch time.
func fig1(o Options) error {
	fmt.Fprintf(o.Out, "Fig. 1 — TGAT per-epoch runtime breakdown vs #neighbors | scale=%.2f\n", o.Scale)
	for _, ds := range o.loadDatasets([]string{"wikipedia", "reddit"}) {
		fmt.Fprintf(o.Out, "\n%s\n%-12s %10s %10s %8s\n", ds.Spec.Name, "#neighbors", "Prep(s)", "Prop(s)", "Prep%")
		for _, n := range []int{5, 10, 15, 20} {
			cfg := o.baseConfig(train.ModelTGAT)
			cfg.Finder = train.FinderOrigin // the original pipeline
			cfg.CacheRatio = 0
			cfg.N = n
			cfg.Epochs = 1
			tr, err := train.New(cfg, ds)
			if err != nil {
				return err
			}
			tr.TrainEpoch()
			prep := tr.Timer.Get("NF") + tr.Timer.Get("FS")
			prop := tr.Timer.Get("PP")
			fmt.Fprintf(o.Out, "%-12d %10.3f %10.3f %7.0f%%\n",
				n, prep.Seconds(), prop.Seconds(),
				100*float64(prep)/float64(prep+prop))
		}
	}
	return nil
}
