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

// Kernels measures the raw-speed floor (DESIGN.md §13): the blocked,
// bounds-check-free MatMul kernels against the seed's skip-based ikj loop on
// the shapes the models actually push through them, and the quantized
// serving path (f32/int8 weight clones at PublishWeights) as
// predict latency, weight footprint and MRR delta against f64.
//
// On the 1-CPU dev container the GFLOP rates are scalar-SSE2 single-core
// numbers; speedups are the stable signal (EXPERIMENTS.md).
func Kernels(o Options) error {
	o = o.Normalize()

	// --- dense MatMul: seed reference loop vs dispatching kernel ---------
	// The first three shapes are the per-batch projections a bench-profile
	// TGAT/GraphMixer forward issues (batch·(budget+1) = 1504 and 304 token
	// rows at Hidden=24, TimeDim=12, feat 38/48); the squares exercise the
	// unpacked 4-row regime and the packed 2×4 blocked regime.
	shapes := []struct {
		label   string
		m, k, n int
	}{
		{"proj feat→hidden", 1504, 38, 24},
		{"ffn hidden→2h", 1504, 24, 48},
		{"ffn 2h→hidden", 304, 48, 24},
		{"square dense-path", 256, 256, 256},
		{"square blocked", 512, 512, 512},
	}
	rng := mathx.NewRNG(o.Seed)
	fmt.Fprintf(o.Out, "Dense MatMul: seed skip-loop vs dispatching kernel\n")
	fmt.Fprintf(o.Out, "%-20s %-16s %12s %12s %9s %9s %8s\n",
		"shape", "m×k×n", "ref ns/op", "new ns/op", "ref GF/s", "new GF/s", "speedup")
	for _, s := range shapes {
		a := tensor.Randn(s.m, s.k, 1, rng)
		b := tensor.Randn(s.k, s.n, 1, rng)
		dst := tensor.New(s.m, s.n)
		refNs := timeOp(func() { matMulSeedRef(dst, a, b) })
		newNs := timeOp(func() { tensor.MatMulInto(dst, a, b) })
		flop := 2 * float64(s.m) * float64(s.k) * float64(s.n)
		fmt.Fprintf(o.Out, "%-20s %-16s %12.0f %12.0f %9.2f %9.2f %7.2fx\n",
			s.label, fmt.Sprintf("%d×%d×%d", s.m, s.k, s.n),
			refNs, newNs, flop/refNs, flop/newNs, refNs/newNs)
	}

	// --- MatMulTransB (attention scores / weight gradients) --------------
	fmt.Fprintf(o.Out, "\nMatMulTransB (a @ bᵀ): seed dot-loop vs 2×4-tiled kernel\n")
	fmt.Fprintf(o.Out, "%-20s %-16s %12s %12s %8s\n",
		"shape", "m×k×n", "ref ns/op", "new ns/op", "speedup")
	for _, s := range []struct {
		label   string
		m, k, n int
	}{
		{"scores q@kᵀ", 1504, 24, 38},
		{"grad w@xᵀ", 304, 24, 48},
	} {
		a := tensor.Randn(s.m, s.k, 1, rng)
		b := tensor.Randn(s.n, s.k, 1, rng)
		dst := tensor.New(s.m, s.n)
		refNs := timeOp(func() { matMulTransBSeedRef(dst, a, b) })
		newNs := timeOp(func() { tensor.MatMulTransBInto(dst, a, b) })
		fmt.Fprintf(o.Out, "%-20s %-16s %12.0f %12.0f %7.2fx\n",
			s.label, fmt.Sprintf("%d×%d×%d", s.m, s.k, s.n), refNs, newNs, refNs/newNs)
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

// matMulSeedRef is the seed repo's MatMul kernel — skip-based ikj with a
// per-element zero test — kept verbatim as the "before" baseline.
func matMulSeedRef(dst, a, b *tensor.Matrix) {
	n, p := a.Cols, b.Cols
	for i := 0; i < a.Rows; i++ {
		drow := dst.Data[i*p : (i+1)*p]
		for j := range drow {
			drow[j] = 0
		}
		arow := a.Data[i*n : (i+1)*n]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Data[k*p : (k+1)*p]
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
}

// matMulTransBSeedRef is the seed's a @ bᵀ kernel: one dot product per
// output element.
func matMulTransBSeedRef(dst, a, b *tensor.Matrix) {
	n := a.Cols
	m2 := b.Rows
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*n : (i+1)*n]
		drow := dst.Data[i*m2 : (i+1)*m2]
		for j := 0; j < m2; j++ {
			brow := b.Data[j*n : (j+1)*n]
			var s float64
			for k, bv := range brow {
				s += arow[k] * bv
			}
			drow[j] = s
		}
	}
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
