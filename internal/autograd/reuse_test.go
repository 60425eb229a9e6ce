package autograd

import (
	"math"
	"testing"

	"taser/internal/mathx"
	"taser/internal/tensor"
)

// reuseLabels lives at package scope so the warm-pass allocation count
// measures the graph, not the test's own literal (real callers reuse their
// label buffers across steps the same way).
var reuseLabels = []float64{1, 0, 1, 1, 0, 0}

// reuseLoss exercises every op family on one graph: dense primitives, shape
// ops, activations, grouped kernels, reductions and both masked-softmax
// paths. It is deterministic given the params.
func reuseLoss(g *Graph, p map[string]*Var) *Var {
	const groups, k = 3, 4 // p["keys"] is (groups·k)×d
	x := g.AddBias(g.MatMul(p["x"], p["w"]), p["b"])
	x = g.LayerNormRows(x, p["gain"], p["bias"])
	x = g.GELU(x)

	q := g.Tanh(g.MatMul(p["x"], p["w"]))
	scores := g.Scale(g.GroupedScore(q, p["keys"], k), 1/math.Sqrt(k))
	attn := g.SoftmaxRows(scores)
	agg := g.GroupedWeightedSum(attn, p["vals"], k)

	mix := g.GroupedMatMulLeft(p["mix"], p["keys"], k)
	mean := g.GroupMean(mix, p["mix"].Rows())

	idx := g.Ints(2 * groups)
	for i := range idx {
		idx[i] = int32(i % groups)
	}
	gathered := g.GatherRows(g.ConcatCols(x, agg, mean), idx)
	rep := g.GatherRows(g.Sub(g.Mul(x, x), x), idx)
	rep = g.ConcatCols(rep, rep, rep) // widen to match gathered

	// Compute on a subset of the rows and scatter back, as the models do
	// with valid neighbor slots: the other rows become exact zeros.
	keep := g.Ints(groups)
	for i := range keep {
		keep[i] = int32(2*i + i%2)
	}
	kept := g.GatherRows(g.Add(gathered, rep), keep)
	masked := g.ScatterRows(g.Scale(kept, 1.5), keep, 2*groups)

	logits := g.Reshape(g.MatMul(g.LeakyReLU(masked, 0.2), p["head"]), 2*groups, 1)
	bce := g.BCEWithLogits(g.Sigmoid(logits), reuseLabels)

	coef := g.Scratch(2*groups, 1)
	for i := range coef.Data {
		coef.Data[i] = 0.1 * float64(i+1)
	}
	aux := g.WeightedSumConst(g.LogSoftmaxRows(g.Cos(logits)), coef)
	return g.Add(g.MeanAll(g.Tanh(bce)), g.SumAll(aux))
}

func reuseParams(seed uint64) map[string]*Var {
	rng := mathx.NewRNG(seed)
	const groups, k, d = 3, 4, 5
	gain := tensor.Randn(1, d, 0.2, rng)
	gain.AddRowVecInPlace(onesRow(d))
	return map[string]*Var{
		"x":    NewParam(tensor.Randn(groups, d, 1, rng)),
		"w":    NewParam(tensor.Randn(d, d, 1, rng)),
		"b":    NewParam(tensor.Randn(1, d, 1, rng)),
		"gain": NewParam(gain),
		"bias": NewParam(tensor.Randn(1, d, 0.2, rng)),
		"keys": NewParam(tensor.Randn(groups*k, d, 1, rng)),
		"vals": NewParam(tensor.Randn(groups*k, d, 1, rng)),
		"mix":  NewParam(tensor.Randn(2, k, 1, rng)),
		"head": NewParam(tensor.Randn(3*d, 1, 1, rng)),
	}
}

func runPass(g *Graph, p map[string]*Var) (loss float64, grads map[string][]float64) {
	for _, v := range p {
		v.Grad.Zero()
	}
	l := reuseLoss(g, p)
	g.Backward(l)
	grads = make(map[string][]float64)
	for name, v := range p {
		grads[name] = append([]float64(nil), v.Grad.Data...)
	}
	return l.Val.Data[0], grads
}

// TestReusedGraphBitwiseEqualsFresh is the tape-reuse contract: running the
// same forward–backward on one arena-backed graph with Reset between passes
// yields bitwise-identical losses and parameter gradients to a fresh unpooled
// graph per pass — recycled slabs are indistinguishable from fresh matrices.
func TestReusedGraphBitwiseEqualsFresh(t *testing.T) {
	pFresh := reuseParams(42)
	pReuse := reuseParams(42)
	reused := NewReusable()
	reused.Arena().SetPoison(true) // poison must never leak into legit reuse
	for pass := 0; pass < 4; pass++ {
		fl, fg := runPass(New(), pFresh)
		reused.Reset()
		rl, rg := runPass(reused, pReuse)
		if fl != rl {
			t.Fatalf("pass %d: reused loss %v != fresh loss %v", pass, rl, fl)
		}
		for name, fv := range fg {
			for i, v := range fv {
				if rg[name][i] != v {
					t.Fatalf("pass %d: grad %q[%d] reused %v != fresh %v", pass, name, i, rg[name][i], v)
				}
			}
		}
	}
}

// TestReusedGraphGradcheck re-runs a finite-difference check against a graph
// that has already served (and Reset) several passes, pinning that tape reuse
// does not corrupt the backward bodies themselves.
func TestReusedGraphGradcheck(t *testing.T) {
	p := reuseParams(7)
	g := NewReusable()
	for i := 0; i < 3; i++ {
		g.Reset()
		runPass(g, p)
	}
	params := []*Var{p["x"], p["w"], p["gain"], p["keys"], p["mix"], p["head"]}
	// Analytic pass on the reused graph.
	for _, v := range p {
		v.Grad.Zero()
	}
	g.Reset()
	loss := reuseLoss(g, p)
	g.Backward(loss)
	const h = 1e-6
	for pi, prm := range params {
		for i := range prm.Val.Data {
			orig := prm.Val.Data[i]
			prm.Val.Data[i] = orig + h
			g.Reset()
			up := reuseLoss(g, p).Val.Data[0]
			prm.Val.Data[i] = orig - h
			g.Reset()
			down := reuseLoss(g, p).Val.Data[0]
			prm.Val.Data[i] = orig
			fd := (up - down) / (2 * h)
			an := prm.Grad.Data[i]
			scale := math.Max(1, math.Max(math.Abs(fd), math.Abs(an)))
			if math.Abs(fd-an)/scale > 1e-4 {
				t.Fatalf("param %d elem %d: analytic %v, finite-diff %v", pi, i, an, fd)
			}
		}
	}
}

// TestReusedGraphSteadyStateAllocFree asserts the tentpole property at the
// autograd layer: a warm forward–backward pass on an arena-backed graph
// performs zero heap allocations (everything — outputs, gradients, tape,
// scratch, index slabs — is recycled).
func TestReusedGraphSteadyStateAllocFree(t *testing.T) {
	p := reuseParams(11)
	g := NewReusable()
	pass := func() {
		g.Reset()
		l := reuseLoss(g, p)
		g.Backward(l)
	}
	for i := 0; i < 3; i++ {
		pass()
	}
	if allocs := testing.AllocsPerRun(50, pass); allocs > 0 {
		t.Fatalf("warm forward-backward allocates %.1f times, want 0", allocs)
	}
}

// TestForwardOnlyPassMatchesRecording pins the forward-only checkout: the same
// op sequence yields bitwise the same values with no gradient matrix on any
// output and nothing on the tape, the mode ends at the next Reset, and
// Backward refuses a pass that recorded nothing.
func TestForwardOnlyPassMatchesRecording(t *testing.T) {
	p := reuseParams(5)
	g := NewReusable()
	g.Reset()
	want := math.Float64bits(reuseLoss(g, p).Val.Data[0])
	recorded := g.Ops()
	checkouts := g.Arena().InUse()

	g.ResetForwardOnly()
	l := reuseLoss(g, p)
	if got := math.Float64bits(l.Val.Data[0]); got != want {
		t.Fatalf("forward-only loss bits %#x, recording %#x", got, want)
	}
	if g.Ops() != 0 || l.NeedsGrad() {
		t.Fatalf("forward-only pass recorded %d ops (loss carries grad: %v)", g.Ops(), l.NeedsGrad())
	}
	if fwd := g.Arena().InUse(); 2*fwd > checkouts+2 {
		t.Fatalf("forward-only pass checked out %d matrices, recording %d: gradients still allocated", fwd, checkouts)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Backward on a forward-only pass must panic")
			}
		}()
		g.Backward(l)
	}()

	g.Reset()
	if reuseLoss(g, p); g.Ops() != recorded {
		t.Fatalf("after Reset the graph records %d ops, want %d", g.Ops(), recorded)
	}
}

// TestPoisonFlagsUseAfterReset demonstrates the debug mode: a Var retained
// across Reset reads NaN instead of the next pass's data.
func TestPoisonFlagsUseAfterReset(t *testing.T) {
	g := NewReusable()
	g.Arena().SetPoison(true)
	a := NewParam(tensor.FromSlice(1, 2, []float64{1, 2}))
	stale := g.Scale(a, 2)
	g.Reset()
	if !math.IsNaN(stale.Val.Data[0]) {
		t.Fatalf("stale intermediate reads %v after Reset, want NaN under poison", stale.Val.Data[0])
	}
	// The graph itself keeps working.
	fresh := g.Scale(a, 2)
	if fresh.Val.Data[0] != 2 {
		t.Fatalf("post-Reset op = %v, want 2", fresh.Val.Data[0])
	}
}
