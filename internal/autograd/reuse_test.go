package autograd

import (
	"math"
	"runtime"
	"testing"

	"taser/internal/mathx"
	"taser/internal/tensor"
)

// reuseLabels lives at package scope so the warm-pass allocation count
// measures the graph, not the test's own literal (real callers reuse their
// label buffers across steps the same way).
var reuseLabels = []float64{1, 0, 1, 1, 0, 0}

// reuseLoss exercises every op family on one graph: dense primitives, shape
// ops, activations, grouped kernels, reductions and both slot softmaxes. It
// is deterministic given the params.
func reuseLoss(g *Graph, p map[string]*Var) *Var {
	const groups, k = 3, 4 // p["keys"] is (groups·k)×d
	x := g.Affine(p["x"], p["w"], p["b"])
	x = g.LayerNormRows(x, p["gain"], p["bias"])
	x = g.GELU(x)

	// A linear layer over two parts, one of which (x) later ops read again.
	q := g.Tanh(g.AffineParts(p["wq"], p["b"], p["x"], x))
	// The neighborhood reductions over a proper subset of the slots, their
	// rows gathered from the padded parameters: every third slot is padding.
	slots := g.Ints(groups * k * 2 / 3)[:0]
	for s := int32(0); s < groups*k; s++ {
		if s%3 != 1 {
			slots = append(slots, s)
		}
	}
	scores := g.Scale(g.GroupedScore(q, g.GatherRows(p["keys"], slots), slots, k), 1/math.Sqrt(k))
	attn := g.SoftmaxSlots(scores, slots)
	agg := g.GroupedWeightedSum(attn, g.GatherRows(p["vals"], slots), slots, k)

	mix := g.GroupedMatMulLeft(p["mix"], p["keys"], k)
	mixSlots := g.Ints(3) // the mixed rows of groups 0 and 2 only
	mixSlots[0], mixSlots[1], mixSlots[2] = 0, 1, 5
	mean := g.GroupMean(g.GatherRows(mix, mixSlots), mixSlots, groups, p["mix"].Rows())

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

	logits := g.Reshape(g.Affine(g.LeakyReLU(masked, 0.2), p["head"], p["headB"]), 2*groups, 1)
	bce := g.BCEWithLogits(g.Sigmoid(logits), reuseLabels)

	// Log-probabilities over a proper subset of a 2×groups layout: slot 1 is
	// not named.
	coef := g.Scratch(2, groups)
	for i := range coef.Data {
		coef.Data[i] = 0.1 * float64(i+1)
	}
	logSlots := g.Ints(5)
	logSlots[0], logSlots[1], logSlots[2], logSlots[3], logSlots[4] = 0, 2, 3, 4, 5
	aux := g.WeightedSumConst(g.LogSoftmaxSlots(g.Cos(g.Reshape(logits, 2, groups)), logSlots), coef)
	return g.Add(g.MeanAll(g.Tanh(bce)), g.SumAll(aux))
}

func reuseParams(seed uint64) map[string]*Var {
	rng := mathx.NewRNG(seed)
	const groups, k, d = 3, 4, 5
	gain := tensor.Randn(1, d, 0.2, rng)
	addOne(gain)
	return map[string]*Var{
		"x":     NewParam(tensor.Randn(groups, d, 1, rng)),
		"w":     NewParam(tensor.Randn(d, d, 1, rng)),
		"wq":    NewParam(tensor.Randn(2*d, d, 1, rng)),
		"b":     NewParam(tensor.Randn(1, d, 1, rng)),
		"gain":  NewParam(gain),
		"bias":  NewParam(tensor.Randn(1, d, 0.2, rng)),
		"keys":  NewParam(tensor.Randn(groups*k, d, 1, rng)),
		"vals":  NewParam(tensor.Randn(groups*k, d, 1, rng)),
		"mix":   NewParam(tensor.Randn(2, k, 1, rng)),
		"head":  NewParam(tensor.Randn(3*d, 1, 1, rng)),
		"headB": NewParam(tensor.Randn(1, 1, 1, rng)),
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
//
// It is also the proof that no reader sees an un-zeroed Val. Op outputs are
// checked out without a zero-fill, so under poison the reused graph's are NaN
// until the op writes them (from the first pass: GetUninit poisons fresh
// storage too). The tapes are therefore compared entry by entry — every op's
// value and gradient NaN-free and equal to the fresh graph's bits — and the
// pass is held to recording every op kind the package has, so an op added
// later that leaves an element unwritten fails here.
func TestReusedGraphBitwiseEqualsFresh(t *testing.T) {
	pFresh := reuseParams(42)
	pReuse := reuseParams(42)
	reused := NewReusable()
	reused.Arena().SetPoison(true) // poison must never leak into legit reuse
	for pass := 0; pass < 4; pass++ {
		fresh := New()
		fl, fg := runPass(fresh, pFresh)
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

		if len(reused.tape) != len(fresh.tape) {
			t.Fatalf("pass %d: reused graph recorded %d ops, fresh %d", pass, len(reused.tape), len(fresh.tape))
		}
		var seen [opKinds]bool
		for i := range reused.tape {
			re, fe := &reused.tape[i], &fresh.tape[i]
			seen[re.op] = true
			for _, m := range [][2]*tensor.Matrix{{re.out.Val, fe.out.Val}, {re.out.Grad, fe.out.Grad}} {
				for j, v := range m[0].Data {
					if math.IsNaN(v) || math.Float64bits(v) != math.Float64bits(m[1].Data[j]) {
						t.Fatalf("pass %d, tape entry %d (op %d), elem %d: reused %v, fresh %v", pass, i, re.op, j, v, m[1].Data[j])
					}
				}
			}
		}
		for op, ok := range seen {
			if !ok {
				t.Fatalf("reuseLoss records no op of kind %d: every op must run under poison here", op)
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
	params := []*Var{p["x"], p["w"], p["wq"], p["gain"], p["keys"], p["mix"], p["head"]}
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
// op sequence (GELU and Cos included, which evaluate differently when they
// record) yields bitwise the same values with no gradient matrix on any
// output, nothing stashed for a backward body and nothing on the tape, the
// mode ends at the next Reset, and Backward refuses a pass that recorded
// nothing.
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
	// A recording pass checks out a value and a gradient per op, LayerNorm's
	// two statistics rows, GELU's tanh, Cos's sine, and reuseLoss's one
	// Scratch; a forward-only pass the values and the Scratch, nothing else.
	if want := 2*recorded + 5; checkouts != want {
		t.Fatalf("recording pass checked out %d matrices, want %d", checkouts, want)
	}
	if fwd, want := g.Arena().InUse(), recorded+1; fwd != want {
		t.Fatalf("forward-only pass checked out %d matrices, want %d: a gradient or a backward stash is still allocated", fwd, want)
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

	// The two ops with a recording-only forward body, element by element over
	// arguments from 1e-3 to 1e6 (past math.Cos's Payne–Hanek threshold).
	x := tensor.Randn(64, 40, 1, mathx.NewRNG(6))
	for i := range x.Data {
		x.Data[i] *= math.Pow(10, float64(i%10-3))
	}
	xp := NewParam(x)
	g.Reset()
	gelu, cos := g.GELU(xp).Val.Clone(), g.Cos(xp).Val.Clone()
	g.ResetForwardOnly()
	fGELU, fCos := g.GELU(xp), g.Cos(xp)
	if g.Arena().InUse() != 2 {
		t.Fatalf("forward-only GELU and Cos checked out %d matrices, want their 2 values", g.Arena().InUse())
	}
	for i := range x.Data {
		if math.Float64bits(fGELU.Val.Data[i]) != math.Float64bits(gelu.Data[i]) ||
			math.Float64bits(fCos.Val.Data[i]) != math.Float64bits(cos.Data[i]) {
			t.Fatalf("x = %v: forward-only GELU %v Cos %v, recording %v %v",
				x.Data[i], fGELU.Val.Data[i], fCos.Val.Data[i], gelu.Data[i], cos.Data[i])
		}
	}
}

// TestSincosIsSinAndCosBitwise is the premise of Cos's two passes: a recording
// pass takes cos(x) from mathx.SincosInto and keeps the sine for the backward
// body, a forward-only pass calls mathx.CosInto, and the backward used to call
// math.Sin. The chain kernel ≡ math.Sincos ≡ (math.Sin, math.Cos) must hold to
// the last bit or the two passes (and the pinned training trajectories)
// diverge. The library half holds for the pure-Go implementations amd64 and
// arm64 run (same reduction, same polynomials) and the kernels copy that
// arithmetic (internal/mathx has their own, denser test); this one is what
// fails loudly, next to the op, if a Go release changes either.
func TestSincosIsSinAndCosBitwise(t *testing.T) {
	same := func(a, b float64) bool { // NaN payloads aside
		return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
	}
	xs := []float64{}
	for _, x := range []float64{0, math.Inf(1), math.NaN(), math.Pi / 4, math.Pi / 2, math.Pi,
		1 << 29, 1<<29 + 1, math.MaxFloat64, math.SmallestNonzeroFloat64} {
		xs = append(xs, x, -x)
	}
	rng := mathx.NewRNG(2024)
	for i := 0; i < 1100000; i++ {
		// Scales 1e-3 … 1e18, both signs.
		xs = append(xs, rng.NormFloat64()*math.Pow(10, float64(i%22-3)))
	}
	kSin, kCos, kCosOnly := make([]float64, len(xs)), make([]float64, len(xs)), make([]float64, len(xs))
	mathx.SincosInto(kSin, kCos, xs)
	mathx.CosInto(kCosOnly, xs)
	for i, x := range xs {
		s, c := math.Sincos(x)
		if !same(s, math.Sin(x)) || !same(c, math.Cos(x)) {
			t.Fatalf("Sincos(%v) = (%v, %v), Sin %v, Cos %v", x, s, c, math.Sin(x), math.Cos(x))
		}
		if !same(kSin[i], s) || !same(kCos[i], c) || !same(kCosOnly[i], c) {
			t.Fatalf("x = %v: kernels give sin %v, cos %v and %v, math.Sincos (%v, %v)", x, kSin[i], kCos[i], kCosOnly[i], s, c)
		}
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

// TestGELUWithoutKernelMatchesWith runs GELU forward and backward twice, on
// mathx's AVX2 kernel and with the CPU probe's answer overridden to "no
// kernel", and requires the values, the stashed tanh and the input gradients
// to agree bit for bit — so which CPU a model trained on is invisible in its
// weights. Two shapes: an element count that is no multiple of 4 (a scalar
// tail behind the lanes), and one past geluParallelThreshold with four
// workers, whose ranges are no multiple of 4 long, so each ends in a scalar
// tail mid-matrix and the next starts off the four-element grid. Recording
// and forward-only.
func TestGELUWithoutKernelMatchesWith(t *testing.T) {
	defer mathx.ForceScalar(false)
	if gelu, _ := mathx.ForceScalar(false); !gelu {
		t.Skip("no AVX2 + FMA: GELU already runs the GELUTanh loop")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, shape := range [][2]int{{37, 7}, {geluParallelThreshold/9 + 3, 9}} {
		if n := shape[0] * shape[1]; n >= geluParallelThreshold && (n+3)/4%4 == 0 {
			t.Fatalf("%d elements split four ways on the four-element grid: pick another shape", n)
		}
		x := tensor.Randn(shape[0], shape[1], 1.5, mathx.NewRNG(7))
		names := [4]string{"value", "stashed tanh", "input gradient", "forward-only value"}
		run := func(kernel bool) (out [4]*tensor.Matrix) {
			mathx.ForceScalar(!kernel)
			g, xp := NewReusable(), NewParam(x)
			g.Reset()
			y := g.GELU(xp)
			out[1] = g.tape[len(g.tape)-1].aux1.Clone()
			g.Backward(g.SumAll(g.Mul(y, y)))
			out[0], out[2] = y.Val.Clone(), xp.Grad.Clone()
			g.ResetForwardOnly()
			out[3] = g.GELU(xp).Val.Clone()
			return out
		}
		with, without := run(true), run(false)
		for k, name := range names {
			for i := range x.Data {
				if a, b := with[k].Data[i], without[k].Data[i]; math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("%dx%d %s at %d (x = %v): kernel %v, library %v", shape[0], shape[1], name, i, x.Data[i], a, b)
				}
			}
		}
		for i := range x.Data {
			if math.Float64bits(with[0].Data[i]) != math.Float64bits(with[3].Data[i]) {
				t.Fatalf("%dx%d: forward-only value differs from recording at %d", shape[0], shape[1], i)
			}
		}
	}
}
