package autograd

import (
	"math"

	"taser/internal/tensor"
)

// WeightedSumConst returns the scalar Σ_ij coef[i][j]·a[i][j] where coef is a
// constant. This is the building block of the REINFORCE sample loss
// (Eqs. 25–26): coefficients are frozen, only log-probabilities carry grad.
// coef is borrowed until Backward/Reset; Graph.Scratch provides coefficient
// storage with exactly that lifetime.
func (g *Graph) WeightedSumConst(a *Var, coef *tensor.Matrix) *Var {
	a.Val.SameShapeOrPanic(coef, "WeightedSumConst")
	o := g.out(1, 1, a.NeedsGrad())
	var s float64
	for i, v := range a.Val.Data {
		s += v * coef.Data[i]
	}
	o.Val.Data[0] = s
	if o.NeedsGrad() {
		g.push(tapeEntry{op: opWeightedSumConst, out: o, a: a, coef: coef})
	}
	return o
}

// BCEWithLogits computes the mean binary cross-entropy between logits (B×1)
// and labels (len B), fused with the sigmoid for numerical stability. labels
// is borrowed until Backward/Reset.
func (g *Graph) BCEWithLogits(logits *Var, labels []float64) *Var {
	if logits.Cols() != 1 || logits.Rows() != len(labels) {
		panic("autograd: BCEWithLogits wants B×1 logits matching labels")
	}
	o := g.out(1, 1, logits.NeedsGrad())
	var loss float64
	for i, y := range labels {
		x := logits.Val.Data[i]
		// log(1+e^x) computed stably: max(x,0) + log1p(e^-|x|)
		loss += math.Max(x, 0) - x*y + math.Log1p(math.Exp(-math.Abs(x)))
	}
	o.Val.Data[0] = loss / float64(len(labels))
	if o.NeedsGrad() {
		g.push(tapeEntry{op: opBCEWithLogits, out: o, a: logits, labels: labels})
	}
	return o
}

// LayerNormSlots normalizes each row of the rows×C layout that holds a's row
// i at row slots[i] (strictly ascending) and a zero row everywhere else, then
// applies gain and bias (both 1×C parameters), without forming that layout:
// the output's named rows normalize a's rows, every other row is the
// normalization of a zero row. Values and gradients are bitwise those of
// normalizing ScatterRows(a, slots, rows) row by row (DESIGN.md §6); with
// every row named (slots = RowRange(a.Rows())) it is plain row
// normalization. slots is borrowed until Backward/Reset.
func (g *Graph) LayerNormSlots(a, gain, bias *Var, slots []int32, rows int) *Var {
	const eps = 1e-5
	needs := a.NeedsGrad() || gain.NeedsGrad() || bias.NeedsGrad()
	o := g.out(rows, a.Cols(), needs)
	if !o.NeedsGrad() {
		tensor.LayerNormSlotsInto(o.Val, a.Val, gain.Val, bias.Val, slots, nil, nil, eps)
		return o
	}
	means := g.arena.GetUninit(1, len(slots))
	invStds := g.arena.GetUninit(1, len(slots))
	tensor.LayerNormSlotsInto(o.Val, a.Val, gain.Val, bias.Val, slots, means.Data, invStds.Data, eps)
	g.push(tapeEntry{op: opLayerNormSlots, out: o, a: a, b: gain, c: bias, aux1: means, aux2: invStds, idx: slots})
	return o
}
