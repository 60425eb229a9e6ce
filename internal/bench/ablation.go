package bench

import (
	"fmt"

	"taser/internal/adaptive"
	"taser/internal/train"
)

// ablationEncoder measures the contribution of each neighbor-encoder
// component (TE, FE, IE — §III-B / §IV-B): TASER on the Wikipedia-style
// dataset with one component removed at a time.
func ablationEncoder(o Options) error {
	fmt.Fprintf(o.Out, "Ablation — neighbor-encoder components (TGAT, wikipedia) | scale=%.2f epochs=%d\n",
		o.Scale, o.Epochs)
	fmt.Fprintf(o.Out, "%-16s %10s\n", "config", "test MRR")
	for _, row := range []struct {
		name       string
		te, fe, ie bool // disabled flags
	}{
		{"full (TE+FE+IE)", false, false, false},
		{"w/o TE", true, false, false},
		{"w/o FE", false, true, false},
		{"w/o IE", false, false, true},
		{"features only", true, true, true},
	} {
		ds := o.loadDatasets([]string{"wikipedia"})[0]
		cfg := o.baseConfig(train.ModelTGAT)
		cfg.AdaBatch, cfg.AdaNeighbor = true, true
		cfg.Decoder = adaptive.DecoderGATv2
		cfg.DisableTE, cfg.DisableFE, cfg.DisableIE = row.te, row.fe, row.ie
		tr, err := train.New(cfg, ds)
		if err != nil {
			return err
		}
		_, _, test := tr.Run()
		fmt.Fprintf(o.Out, "%-16s %10.4f\n", row.name, test)
	}
	return nil
}

// ablationDecoder compares the four predictor heads (Eqs. 17–20) on both
// backbones; the paper reports TGAT pairing best with GATv2 and GraphMixer
// with the linear/Mixer head.
func ablationDecoder(o Options) error {
	fmt.Fprintf(o.Out, "Ablation — neighbor-decoder heads (wikipedia) | scale=%.2f epochs=%d\n",
		o.Scale, o.Epochs)
	fmt.Fprintf(o.Out, "%-10s %12s %12s\n", "decoder", "TGAT", "GraphMixer")
	for _, dec := range []adaptive.Decoder{
		adaptive.DecoderLinear, adaptive.DecoderGAT, adaptive.DecoderGATv2, adaptive.DecoderTrans,
	} {
		fmt.Fprintf(o.Out, "%-10s", dec)
		for _, model := range []train.ModelKind{train.ModelTGAT, train.ModelGraphMixer} {
			ds := o.loadDatasets([]string{"wikipedia"})[0]
			cfg := o.baseConfig(model)
			cfg.AdaBatch, cfg.AdaNeighbor = true, true
			cfg.Decoder = dec
			tr, err := train.New(cfg, ds)
			if err != nil {
				return err
			}
			_, _, test := tr.Run()
			fmt.Fprintf(o.Out, " %12.4f", test)
		}
		fmt.Fprintln(o.Out)
	}
	return nil
}

// ablationHeuristics contrasts human-defined static denoising policies
// (uniform, most-recent, inverse-timespan — §I/§II-A) against TASER's
// learned sampler on the same backbone. The paper's claim to reproduce: the
// inverse-timespan heuristic does NOT reliably beat uniform, while the
// adaptive sampler encompasses and outperforms the heuristics.
func ablationHeuristics(o Options) error {
	fmt.Fprintf(o.Out, "Ablation — static heuristics vs adaptive sampling (TGAT, wikipedia) | scale=%.2f epochs=%d\n",
		o.Scale, o.Epochs)
	fmt.Fprintf(o.Out, "%-24s %10s\n", "sampling", "test MRR")
	for _, row := range []struct {
		name     string
		policy   string
		adaptive bool
	}{
		{"uniform (baseline)", "uniform", false},
		{"most-recent", "recent", false},
		{"inverse-timespan", "invts", false},
		{"adaptive (TASER)", "uniform", true},
	} {
		ds := o.loadDatasets([]string{"wikipedia"})[0]
		cfg := o.baseConfig(train.ModelTGAT)
		cfg.FinderPolicy = row.policy
		cfg.AdaBatch, cfg.AdaNeighbor = row.adaptive, row.adaptive
		cfg.Decoder = adaptive.DecoderGATv2
		tr, err := train.New(cfg, ds)
		if err != nil {
			return err
		}
		_, _, test := tr.Run()
		fmt.Fprintf(o.Out, "%-24s %10.4f\n", row.name, test)
	}
	return nil
}

// ablationCache compares cache replacement policies (Algorithm 3's
// frequency policy vs. LRU) at a 20% ratio under the TASER access pattern:
// hit rate after warm-up and the resulting FS time.
func ablationCache(o Options) error {
	fmt.Fprintf(o.Out, "Ablation — cache replacement policy (TGAT+TASER, 20%% ratio) | scale=%.2f\n", o.Scale)
	fmt.Fprintf(o.Out, "%-10s %-8s %10s %10s\n", "dataset", "policy", "hit rate", "FS (s)")
	for _, name := range []string{"wikipedia", "reddit"} {
		for _, policy := range []string{"freq", "lru"} {
			ds := o.loadDatasets([]string{name})[0]
			cfg := o.baseConfig(train.ModelTGAT)
			cfg.AdaBatch, cfg.AdaNeighbor = true, true
			cfg.Decoder = adaptive.DecoderGATv2
			cfg.CacheRatio = 0.2
			cfg.CachePolicy = policy
			tr, err := train.New(cfg, ds)
			if err != nil {
				return err
			}
			tr.TrainEpoch() // warm-up
			tr.EdgeStore.Policy().ResetStats()
			tr.Timer.Reset()
			tr.TrainEpoch()
			fmt.Fprintf(o.Out, "%-10s %-8s %9.1f%% %10.3f\n",
				name, policy, 100*tr.EdgeStore.Policy().HitRate(), tr.Timer.Get("FS").Seconds())
		}
	}
	return nil
}
