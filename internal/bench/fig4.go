package bench

import (
	"fmt"

	"taser/internal/adaptive"
	"taser/internal/train"
)

// fig4 reproduces Figure 4: test MRR of TASER on the Wikipedia-style dataset
// over the (m, n) grid — m candidates pre-sampled by the neighbor finder, n
// supporting neighbors selected adaptively. The shape to reproduce: MRR
// improves along both axes, i.e. a larger candidate pool lets the adaptive
// sampler find more informative neighbors, and more supporting neighbors
// help when the pool is large enough.
func fig4(o Options) error {
	ms := []int{10, 15, 20, 25}
	ns := []int{5, 10, 15, 20}
	for _, spec := range []struct {
		model   train.ModelKind
		decoder adaptive.Decoder
	}{
		{train.ModelTGAT, adaptive.DecoderGATv2},
		{train.ModelGraphMixer, adaptive.DecoderLinear},
	} {
		fmt.Fprintf(o.Out, "Fig. 4 — %s test MRR on wikipedia over (m, n) | scale=%.2f epochs=%d\n",
			spec.model, o.Scale, o.Epochs)
		fmt.Fprintf(o.Out, "%-6s", "")
		for _, m := range ms {
			fmt.Fprintf(o.Out, "  m=%-8d", m)
		}
		fmt.Fprintln(o.Out)
		for _, n := range ns {
			fmt.Fprintf(o.Out, "n=%-4d", n)
			for _, m := range ms {
				if n > m {
					fmt.Fprintf(o.Out, "  %-10s", "-")
					continue
				}
				ds := o.loadDatasets([]string{"wikipedia"})[0]
				cfg := o.baseConfig(spec.model)
				cfg.AdaBatch, cfg.AdaNeighbor = true, true
				cfg.Decoder = spec.decoder
				cfg.M, cfg.N = m, n
				tr, err := train.New(cfg, ds)
				if err != nil {
					return err
				}
				_, _, test := tr.Run()
				fmt.Fprintf(o.Out, "  %-10.4f", test)
			}
			fmt.Fprintln(o.Out)
		}
		fmt.Fprintln(o.Out)
	}
	return nil
}
