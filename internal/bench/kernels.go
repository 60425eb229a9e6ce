package bench

import (
	"fmt"
	"math"
	"time"

	"taser/internal/mathx"
	"taser/internal/tensor"
)

// Kernels measures the raw-speed floor (DESIGN.md §13): the three dense
// products on the 4×8 register tile — the AVX2 assembly routine against its
// pure-Go twin, the path on CPUs without AVX2 — on the shapes a TASER
// training step actually issues.
//
// GFLOP rates are single-goroutine when GOMAXPROCS is 1; on a shared host
// the asm/Go ratio is the stable signal (EXPERIMENTS.md).
func Kernels(o Options) error {
	o = o.Normalize()

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
