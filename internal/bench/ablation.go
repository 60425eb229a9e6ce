package bench

import (
	"fmt"

	"taser/internal/adaptive"
	"taser/internal/train"
)

// ablationEncoder measures the contribution of each neighbor-encoder
// component (TE, FE, IE — §III-B / §IV-B): TASER on the Wikipedia-style
// dataset with one component removed at a time.
func ablationEncoder(o Options) (string, []Row, error) {
	without := func(name string, te, fe, ie bool) variant {
		return variant{name, func(c *train.Config) {
			taser(c)
			c.DisableTE, c.DisableFE, c.DisableIE = te, fe, ie
		}}
	}
	rows, err := o.accuracyGrid([]string{"wikipedia"}, backbones[:1], []variant{
		without("full (TE+FE+IE)", false, false, false),
		without("w/o TE", true, false, false),
		without("w/o FE", false, true, false),
		without("w/o IE", false, false, true),
		without("features only", true, true, true),
	})
	return fmt.Sprintf("Ablation — neighbor-encoder components | scale=%.2f epochs=%d", o.Scale, o.Epochs), rows, err
}

// ablationDecoder compares the four predictor heads (Eqs. 17–20) on both
// backbones; the paper reports TGAT pairing best with GATv2 and GraphMixer
// with the linear/Mixer head.
func ablationDecoder(o Options) (string, []Row, error) {
	var heads []variant
	for dec := adaptive.DecoderLinear; dec <= adaptive.DecoderTrans; dec++ {
		heads = append(heads, variant{dec.String(), func(c *train.Config) {
			taser(c)
			c.Decoder = dec
		}})
	}
	rows, err := o.accuracyGrid([]string{"wikipedia"}, backbones, heads)
	return fmt.Sprintf("Ablation — neighbor-decoder heads | scale=%.2f epochs=%d", o.Scale, o.Epochs), rows, err
}

// ablationHeuristics contrasts human-defined static denoising policies
// (uniform, most-recent, inverse-timespan — §I/§II-A) against TASER's
// learned sampler on the same backbone. The paper's claim to reproduce: the
// inverse-timespan heuristic does NOT reliably beat uniform, while the
// adaptive sampler encompasses and outperforms the heuristics.
func ablationHeuristics(o Options) (string, []Row, error) {
	static := func(name, policy string) variant {
		return variant{name, func(c *train.Config) { c.FinderPolicy = policy }}
	}
	rows, err := o.accuracyGrid([]string{"wikipedia"}, backbones[:1], []variant{
		static("uniform (baseline)", "uniform"),
		static("most-recent", "recent"),
		static("inverse-timespan", "invts"),
		{"adaptive (TASER)", func(c *train.Config) {
			taser(c)
			c.FinderPolicy = "uniform"
		}},
	})
	return fmt.Sprintf("Ablation — static heuristics vs adaptive sampling | scale=%.2f epochs=%d", o.Scale, o.Epochs), rows, err
}

// ablationCache compares cache replacement policies (Algorithm 3's
// frequency policy vs. LRU) at a 20% ratio under the TASER access pattern:
// hit rate after warm-up and the resulting FS time.
func ablationCache(o Options) (string, []Row, error) {
	var rows []Row
	for _, ds := range o.loadDatasets([]string{"wikipedia", "reddit"}) {
		g := group(ds, train.ModelTGAT)
		for _, policy := range []string{"freq", "lru"} {
			s, err := o.measuredEpoch(ds, train.ModelTGAT, 1, func(c *train.Config) {
				taser(c)
				c.CacheRatio, c.CachePolicy = 0.2, policy
			})
			if err != nil {
				return "", nil, err
			}
			rows = append(rows, Row{g, policy, "hit rate", 100 * s.hitRate, "%"}, Row{g, policy, "FS", s.fs.Seconds(), "s"})
		}
	}
	return fmt.Sprintf("Ablation — cache replacement policy (TASER, 20%% ratio) | scale=%.2f", o.Scale), rows, nil
}
