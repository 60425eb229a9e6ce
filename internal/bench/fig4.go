package bench

import (
	"fmt"

	"taser/internal/train"
)

// fig4 reproduces Figure 4: test MRR of TASER on the Wikipedia-style dataset
// over the (m, n) grid — m candidates pre-sampled by the neighbor finder, n
// supporting neighbors selected adaptively; a cell with n > m does not exist.
// The shape to reproduce: MRR improves along both axes, i.e. a larger
// candidate pool lets the adaptive sampler find more informative neighbors,
// and more supporting neighbors help when the pool is large enough.
func fig4(o Options) (string, []Row, error) {
	title := fmt.Sprintf("Fig. 4 — TASER test MRR over (m, n) | scale=%.2f epochs=%d", o.Scale, o.Epochs)
	var rows []Row
	for _, ds := range o.loadDatasets([]string{"wikipedia"}) {
		for _, model := range backbones {
			for _, n := range []int{5, 10, 15, 20} {
				for _, m := range []int{10, 15, 20, 25} {
					if n > m {
						continue
					}
					mrr, err := o.accuracy(ds, model, func(c *train.Config) {
						taser(c)
						c.M, c.N = m, n
					})
					if err != nil {
						return "", nil, err
					}
					rows = append(rows, Row{group(ds, model), fmt.Sprintf("n=%d", n), fmt.Sprintf("m=%d", m), mrr, "MRR"})
				}
			}
		}
	}
	return title, rows, nil
}
