package autograd

import (
	"math"
	"runtime"

	"taser/internal/mathx"
	"taser/internal/tensor"
)

// Sigmoid applies the logistic function element-wise.
func (g *Graph) Sigmoid(a *Var) *Var {
	o := g.out(a.Rows(), a.Cols(), a.NeedsGrad())
	for i, v := range a.Val.Data {
		o.Val.Data[i] = mathx.Sigmoid(v)
	}
	if o.NeedsGrad() {
		g.push(tapeEntry{op: opSigmoid, out: o, a: a})
	}
	return o
}

// Tanh applies tanh element-wise.
func (g *Graph) Tanh(a *Var) *Var {
	o := g.out(a.Rows(), a.Cols(), a.NeedsGrad())
	for i, v := range a.Val.Data {
		o.Val.Data[i] = math.Tanh(v)
	}
	if o.NeedsGrad() {
		g.push(tapeEntry{op: opTanh, out: o, a: a})
	}
	return o
}

// LeakyReLU applies x>=0 ? x : slope·x element-wise (GAT uses slope 0.2).
func (g *Graph) LeakyReLU(a *Var, slope float64) *Var {
	o := g.out(a.Rows(), a.Cols(), a.NeedsGrad())
	for i, v := range a.Val.Data {
		o.Val.Data[i] = mathx.LeakyReLU(v, slope)
	}
	if o.NeedsGrad() {
		g.push(tapeEntry{op: opLeakyReLU, out: o, a: a, scalar: slope})
	}
	return o
}

// geluParallelThreshold is the element count above which GELU's forward fans
// out when there is more than one worker to fan out to: one tanh per element
// makes it the hottest element-wise op in training. The backward reads that
// tanh back from the tape and stays serial.
const geluParallelThreshold = 1 << 14

// GELU applies the Gaussian error linear unit element-wise. A recording pass
// keeps each element's tanh on the tape entry for the backward body.
func (g *Graph) GELU(a *Var) *Var {
	o := g.out(a.Rows(), a.Cols(), a.NeedsGrad())
	var t []float64
	if o.NeedsGrad() {
		tanh := g.arena.GetUninit(a.Rows(), a.Cols())
		t = tanh.Data
		g.push(tapeEntry{op: opGELU, out: o, a: a, aux1: tanh})
	}
	x, y := a.Val.Data, o.Val.Data
	// The serial path is a plain call (not a conditionally-run closure) so it
	// allocates nothing.
	if n := len(x); n < geluParallelThreshold || runtime.GOMAXPROCS(0) == 1 {
		geluRange(y, t, x, 0, n)
	} else {
		tensor.ParallelRows(n, func(lo, hi int) { geluRange(y, t, x, lo, hi) })
	}
	return o
}

// geluRange writes y = GELU(x) over [lo, hi) and, unless t is nil, each
// element's tanh into t.
func geluRange(y, t, x []float64, lo, hi int) {
	if t != nil {
		t = t[lo:hi]
	}
	mathx.GELUInto(y[lo:hi], t, x[lo:hi])
}

// Cos applies cos element-wise; used by the learnable time encoding (Eq. 3).
// A recording pass evaluates each element's sine alongside and keeps it for
// the backward body. Both run mathx's branch-free kernels, which return
// math.Cos and math.Sincos bit for bit — and so agree with each other.
func (g *Graph) Cos(a *Var) *Var {
	o := g.out(a.Rows(), a.Cols(), a.NeedsGrad())
	if !o.NeedsGrad() {
		mathx.CosInto(o.Val.Data, a.Val.Data)
		return o
	}
	sin := g.arena.GetUninit(a.Rows(), a.Cols())
	mathx.SincosInto(sin.Data, o.Val.Data, a.Val.Data)
	g.push(tapeEntry{op: opCos, out: o, a: a, aux1: sin})
	return o
}

// SoftmaxRows applies softmax along each row.
func (g *Graph) SoftmaxRows(a *Var) *Var {
	o := g.out(a.Rows(), a.Cols(), a.NeedsGrad())
	tensor.SoftmaxRowsInto(o.Val, a.Val)
	if o.NeedsGrad() {
		g.push(tapeEntry{op: opSoftmaxRows, out: o, a: a})
	}
	return o
}

// LogSoftmaxRows returns log(softmax) per row; the numerically preferred
// input to the REINFORCE sample loss.
func (g *Graph) LogSoftmaxRows(a *Var) *Var {
	o := g.out(a.Rows(), a.Cols(), a.NeedsGrad())
	for i := 0; i < a.Rows(); i++ {
		row := a.Val.Row(i)
		lse := mathx.LogSumExp(row)
		out := o.Val.Row(i)
		for j, v := range row {
			out[j] = v - lse
		}
	}
	if o.NeedsGrad() {
		g.push(tapeEntry{op: opLogSoftmaxRows, out: o, a: a})
	}
	return o
}
