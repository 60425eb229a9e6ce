package bench

import (
	"fmt"
	"math"
	"time"

	"taser/internal/datasets"
	"taser/internal/mathx"
	"taser/internal/models"
	"taser/internal/sampler"
	"taser/internal/serve"
	"taser/internal/tensor"
	"taser/internal/train"
)

// Kernels measures the raw-speed floor (DESIGN.md §13): the three dense
// products on the 4×8 register tile — the AVX2 assembly routine against its
// pure-Go twin, the path on CPUs without AVX2 — on the shapes a TASER
// training step actually issues, and the quantized serving path (f32/int8
// weight clones at PublishWeights) as predict latency, weight footprint and
// MRR delta against f64.
//
// GFLOP rates are single-goroutine when GOMAXPROCS is 1; on a shared host
// the asm/Go ratio is the stable signal (EXPERIMENTS.md).
func Kernels(o Options) error {
	o = o.Normalize()

	// --- dense products: assembly tile vs Go twin ------------------------
	// The six m×k×n are the matmuls of one train-taser-tgat step (wikipedia,
	// batch 32, Hidden 24, N 10, M 25): x is m×k, w is k×n, and each shape
	// runs forward (x@w), the weight gradient (xᵀ@dy, accumulating) and the
	// input gradient (dy@wᵀ, accumulating) — 2·m·k·n FLOP each.
	type shape struct{ m, k, n int }
	steps := []shape{{1389, 73, 73}, {5500, 48, 24}, {733, 72, 24}, {1389, 105, 16}, {1056, 24, 24}, {1389, 32, 16}}
	products := []struct {
		name string
		run  func(x, w, y, dw, dx *tensor.Matrix)
	}{
		{"a@b", func(x, w, y, dw, dx *tensor.Matrix) { tensor.MatMulInto(y, x, w) }},
		{"aᵀ@b", func(x, w, y, dw, dx *tensor.Matrix) { tensor.MatMulTransAInto(dw, x, y) }},
		{"a@bᵀ", func(x, w, y, dw, dx *tensor.Matrix) { tensor.MatMulTransBAddInto(dx, y, w) }},
	}
	rng := mathx.NewRNG(o.Seed)
	haveAsm := tensor.ForceGoTile(false)
	defer tensor.ForceGoTile(false)
	fmt.Fprintf(o.Out, "Dense products on the 4×8 tile: AVX2 assembly vs Go twin\n")
	fmt.Fprintf(o.Out, "%-16s %-6s %12s %12s %9s %9s %8s\n",
		"m×k×n", "form", "asm ns/op", "go ns/op", "asm GF/s", "go GF/s", "asm/go")
	row := func(s shape, forms int) {
		x := tensor.Randn(s.m, s.k, 1, rng)
		w := tensor.Randn(s.k, s.n, 1, rng)
		y, dw, dx := tensor.New(s.m, s.n), tensor.New(s.k, s.n), tensor.New(s.m, s.k)
		flop := 2 * float64(s.m) * float64(s.k) * float64(s.n)
		label := fmt.Sprintf("%d×%d×%d", s.m, s.k, s.n)
		for _, p := range products[:forms] {
			tensor.ForceGoTile(true)
			goNs := timeOp(func() { p.run(x, w, y, dw, dx) })
			if !tensor.ForceGoTile(false) {
				fmt.Fprintf(o.Out, "%-16s %-6s %12s %12.0f %9s %9.2f %8s\n", label, p.name, "-", goNs, "-", flop/goNs, "-")
				continue
			}
			asmNs := timeOp(func() { p.run(x, w, y, dw, dx) })
			fmt.Fprintf(o.Out, "%-16s %-6s %12.0f %12.0f %9.2f %9.2f %7.2fx\n",
				label, p.name, asmNs, goNs, flop/asmNs, flop/goNs, goNs/asmNs)
		}
	}
	for _, s := range steps {
		row(s, len(products))
	}
	// The squares no model issues: where the deleted packed-panel kernel
	// used to engage (B ≥ 2^18 elements). The unblocked tile driver is
	// faster there than it was (EXPERIMENTS.md), which is why it is gone.
	for _, n := range kernelSquares {
		row(shape{n, n, n}, 1)
	}
	if !haveAsm {
		fmt.Fprintf(o.Out, "(no AVX2 on this CPU: every product runs the Go twin)\n")
	}

	// --- quantized serving path ------------------------------------------
	// Three sibling engines serve one published f64 master in none/f32/int8
	// mode: weight footprint, per-request predict latency, and prequential
	// MRR delta against the f64 baseline (budget: f32 ≤0.005, int8 ≤0.05).
	ds := o.loadDatasets([]string{"wikipedia"})[0]
	fmt.Fprintf(o.Out, "\nQuantized serving (%s): f64 master, quantized clones at publish\n", ds.Spec.Name)
	tr, err := train.New(o.baseConfig(train.ModelTGAT), ds)
	if err != nil {
		return err
	}
	master := models.CaptureWeights(2, tr.Model, tr.Pred)
	f64Bytes := 0
	for _, p := range master.Params {
		f64Bytes += 8 * len(p.Data)
	}

	heldOut := ds.Graph.Events[ds.TrainEnd:]
	n := 40
	if n > len(heldOut) {
		n = len(heldOut)
	}
	const negs = 10

	fmt.Fprintf(o.Out, "%-8s %12s %12s %10s %10s\n", "mode", "weights B", "predict us", "MRR", "ΔMRR")
	var baseMRR float64
	for _, mode := range []models.Quantization{models.QuantNone, models.QuantF32, models.QuantInt8} {
		eng, err := serve.New(serve.Config{
			Model: tr.Model.Clone(), Pred: tr.Pred.Clone(),
			NumNodes: ds.Spec.NumNodes, NodeFeat: ds.NodeFeat, EdgeDim: ds.Spec.EdgeDim,
			Budget: tr.Cfg.N, Policy: sampler.MostRecent,
			MaxBatch: 8, MaxWait: 100 * time.Microsecond, Seed: o.Seed,
			Quantize: mode,
		})
		if err != nil {
			return err
		}
		if err := eng.Bootstrap(ds.Graph.Events[:ds.TrainEnd], ds.EdgeFeat.SliceRows(ds.TrainEnd)); err != nil {
			eng.Close()
			return err
		}
		if err := eng.PublishWeights(master.Clone()); err != nil {
			eng.Close()
			return err
		}
		bytes := f64Bytes
		if mode != models.QuantNone {
			q, err := models.QuantizeWeights(master, mode)
			if err != nil {
				eng.Close()
				return err
			}
			bytes = q.Bytes()
		}

		// Warm the batch scheduler and caches, then time serial predicts.
		for i := 0; i < 32; i++ {
			ev := heldOut[i%n]
			if _, err := eng.PredictLink(ev.Src, ev.Dst, ev.Time); err != nil {
				eng.Close()
				return err
			}
		}
		const reqs = 256
		start := time.Now()
		for i := 0; i < reqs; i++ {
			ev := heldOut[i%n]
			if _, err := eng.PredictLink(ev.Src, ev.Dst, ev.Time); err != nil {
				eng.Close()
				return err
			}
		}
		usPerOp := float64(time.Since(start).Microseconds()) / reqs

		mrr, err := engineMRRBench(eng, ds, n, negs, 17)
		if err != nil {
			eng.Close()
			return err
		}
		eng.Close()
		if mode == models.QuantNone {
			baseMRR = mrr
		}
		fmt.Fprintf(o.Out, "%-8s %12d %12.1f %10.4f %+10.4f\n",
			mode, bytes, usPerOp, mrr, mrr-baseMRR)
	}
	return nil
}

// Timing knobs, lowered by the package smoke test so `go test` doesn't pay
// full measurement quality.
var (
	kernelTimeBudget = 100 * time.Millisecond // per timing round
	kernelTimeRounds = 3                      // best-of rounds
	kernelSquares    = []int{512, 1024}       // n of the n³ rows
)

// timeOp reports the best-of-rounds ns/op for op, each round running until
// ≥kernelTimeBudget (min 2 timed iters) after one warmup call. Best-of
// filters the scheduling noise a shared 1-CPU container injects into any
// single round.
func timeOp(op func()) float64 {
	op()
	best := math.Inf(1)
	for round := 0; round < kernelTimeRounds; round++ {
		iters := 1
		for {
			start := time.Now()
			for i := 0; i < iters; i++ {
				op()
			}
			d := time.Since(start)
			if (d >= kernelTimeBudget && iters >= 2) || iters >= 1<<22 {
				if ns := float64(d.Nanoseconds()) / float64(iters); ns < best {
					best = ns
				}
				break
			}
			iters *= 2
		}
	}
	return best
}

// engineMRRBench scores the n events after the bootstrap prefix against negs
// sampled negatives each and returns the mean reciprocal rank of the true
// destination (deterministic in seed, so every mode ranks the same
// candidate sets).
func engineMRRBench(e *serve.Engine, ds *datasets.Dataset, n, negs int, seed uint64) (float64, error) {
	rng := mathx.NewRNG(seed)
	events := ds.Graph.Events[ds.TrainEnd : ds.TrainEnd+n]
	var sum float64
	for _, ev := range events {
		pos, err := e.PredictLink(ev.Src, ev.Dst, ev.Time)
		if err != nil {
			return 0, err
		}
		rank := 1
		for k := 0; k < negs; k++ {
			neg := int32(rng.Intn(ds.Spec.NumNodes))
			r, err := e.PredictLink(ev.Src, neg, ev.Time)
			if err != nil {
				return 0, err
			}
			if r.Score >= pos.Score {
				rank++
			}
		}
		sum += 1 / float64(rank)
	}
	return sum / float64(len(events)), nil
}
