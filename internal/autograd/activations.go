package autograd

import (
	"taser/internal/mathx"
	"taser/internal/tensor"
)

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
	mathx.GELUInto(o.Val.Data, t, a.Val.Data)
	return o
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

// SoftmaxSlots applies softmax along each row of a over the row's named
// slots: slot s is element s of a's row-major data (row s / a.Cols()), and
// slots is strictly ascending — the valid-slot index of a neighborhood
// layout with a.Cols() slots per row. A slot the index does not name is +0,
// so is every element of a row with no named slot, and neither receives a
// gradient. Naming every slot is the plain row softmax. slots is borrowed
// until Backward/Reset, like GatherRows' index.
func (g *Graph) SoftmaxSlots(a *Var, slots []int32) *Var {
	return g.softmaxSlots(a, slots, opSoftmaxSlots)
}

// LogSoftmaxSlots is SoftmaxSlots' log(softmax), the numerically preferred
// input to the REINFORCE sample loss; an unnamed slot is +0 here too.
func (g *Graph) LogSoftmaxSlots(a *Var, slots []int32) *Var {
	return g.softmaxSlots(a, slots, opLogSoftmaxSlots)
}

func (g *Graph) softmaxSlots(a *Var, slots []int32, op opKind) *Var {
	o := g.out(a.Rows(), a.Cols(), a.NeedsGrad())
	tensor.SoftmaxSlotsInto(o.Val, a.Val, slots, op == opLogSoftmaxSlots)
	if o.NeedsGrad() {
		g.push(tapeEntry{op: op, out: o, a: a, idx: slots})
	}
	return o
}
