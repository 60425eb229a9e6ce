package bench

import (
	"fmt"

	"taser/internal/train"
)

// optimization is one level of Table III: the full TASER pipeline over the
// given finder and edge-feature cache ratio.
func optimization(name string, finder train.FinderKind, cacheRatio float64) variant {
	return variant{name, func(c *train.Config) {
		taser(c)
		c.Finder, c.CacheRatio = finder, cacheRatio
	}}
}

var table3Variants = []variant{
	optimization("Baseline", train.FinderOrigin, 0),
	optimization("+GPU NF", train.FinderGPU, 0),
	optimization("+10% Cache", train.FinderGPU, 0.10),
	optimization("+20% Cache", train.FinderGPU, 0.20),
	optimization("+30% Cache", train.FinderGPU, 0.30),
}

// table3 reproduces Table III: the per-epoch runtime breakdown (NF, AS, FS,
// PP) of the full TASER pipeline as the system optimizations are stacked:
// original neighbor finder → GPU finder → GPU finder + 10/20/30% feature
// cache. The shape to reproduce: NF dominant in the baseline, reduced to ~0
// by the GPU finder; FS reduced severalfold by the cache; total speedups
// larger for TGAT (2 hops) than GraphMixer (1 hop).
//
// Timing protocol: one warm-up epoch, then one measured epoch (measuredEpoch).
// Both adaptive components are on, as in the paper.
func table3(o Options) (string, []Row, error) {
	title := fmt.Sprintf("Table III — per-epoch runtime breakdown | scale=%.2f seed=%d", o.Scale, o.Seed)
	var rows []Row
	// The paper omits Flights (no edge features to cache).
	for _, ds := range o.loadDatasets([]string{"wikipedia", "reddit", "movielens", "gdelt"}) {
		for _, model := range backbones {
			g := group(ds, model)
			var base float64
			for vi, v := range table3Variants {
				s, err := o.measuredEpoch(ds, model, 1, v.set)
				if err != nil {
					return "", nil, err
				}
				total := s.total().Seconds()
				if vi == 0 {
					base = total
				}
				rows = append(rows,
					Row{g, v.name, "NF", s.nf.Seconds(), "s"}, Row{g, v.name, "AS", s.as.Seconds(), "s"},
					Row{g, v.name, "FS", s.fs.Seconds(), "s"}, Row{g, v.name, "PP", s.pp.Seconds(), "s"},
					Row{g, v.name, "total", total, "s"}, Row{g, v.name, "speedup", base / total, "x"})
			}
		}
	}
	return title, rows, nil
}

// fig1 reproduces Figure 1: the per-epoch runtime of baseline TGAT split
// into mini-batch generation (Prep = NF + FS) and propagation (Prop = PP) as
// the number of neighbors per layer grows. The shape to reproduce: Prep
// grows much faster than Prop and dominates the epoch time.
func fig1(o Options) (string, []Row, error) {
	title := fmt.Sprintf("Fig. 1 — per-epoch runtime breakdown vs #neighbors | scale=%.2f", o.Scale)
	var rows []Row
	for _, ds := range o.loadDatasets([]string{"wikipedia", "reddit"}) {
		g := group(ds, train.ModelTGAT)
		for _, n := range []int{5, 10, 15, 20} {
			// The original pipeline: sequential finder, no cache, first epoch.
			s, err := o.measuredEpoch(ds, train.ModelTGAT, 0, func(c *train.Config) {
				c.Finder, c.CacheRatio, c.N = train.FinderOrigin, 0, n
			})
			if err != nil {
				return "", nil, err
			}
			v := fmt.Sprintf("n=%d", n)
			prep, prop := (s.nf + s.fs).Seconds(), s.pp.Seconds()
			rows = append(rows, Row{g, v, "Prep", prep, "s"}, Row{g, v, "Prop", prop, "s"},
				Row{g, v, "Prep share", 100 * prep / (prep + prop), "%"})
		}
	}
	return title, rows, nil
}
