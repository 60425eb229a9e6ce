package autograd

import (
	"math"

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

// geluParallelThreshold is the element count above which GELU fans out; the
// tanh evaluation is expensive enough that this is the hottest element-wise
// op in training.
const geluParallelThreshold = 1 << 14

// GELU applies the Gaussian error linear unit element-wise.
func (g *Graph) GELU(a *Var) *Var {
	o := g.out(a.Rows(), a.Cols(), a.NeedsGrad())
	// The serial path is written out (not a conditionally-spawned closure) so
	// small activations allocate nothing.
	if n := len(a.Val.Data); n < geluParallelThreshold {
		for i := 0; i < n; i++ {
			o.Val.Data[i] = mathx.GELU(a.Val.Data[i])
		}
	} else {
		tensor.ParallelRows(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				o.Val.Data[i] = mathx.GELU(a.Val.Data[i])
			}
		})
	}
	if o.NeedsGrad() {
		g.push(tapeEntry{op: opGELU, out: o, a: a})
	}
	return o
}

// Cos applies cos element-wise; used by the learnable time encoding (Eq. 3).
func (g *Graph) Cos(a *Var) *Var {
	o := g.out(a.Rows(), a.Cols(), a.NeedsGrad())
	for i, v := range a.Val.Data {
		o.Val.Data[i] = math.Cos(v)
	}
	if o.NeedsGrad() {
		g.push(tapeEntry{op: opCos, out: o, a: a})
	}
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
