package autograd

import (
	"math"

	"taser/internal/mathx"
	"taser/internal/tensor"
)

// opKind identifies a recorded operation on the tape.
type opKind uint8

const (
	opAffine opKind = iota
	opAdd
	opConcatCols
	opReshape
	opGatherRows
	opScatterRows

	opLeakyReLU
	opGELU
	opCos
	opSoftmaxSlots
	opLogSoftmaxSlots

	opGroupMean
	opWeightedSumConst
	opBCEWithLogits
	opLayerNormSlots

	opGroupedScore
	opGroupedWeightedSum
	opGroupedMatMulLeftSlots
	opKinds // count, for the test that must run every op
)

// tapeEntry is one recorded operation: a value (not a closure), so the tape
// slice is recycled across Graph.Reset with zero allocation. Fields are a
// union over the ops' needs; unused fields stay zero.
type tapeEntry struct {
	op     opKind
	group  int     // GroupMean/Grouped* neighborhood size
	scalar float64 // GroupedScore scale, LeakyReLU slope

	out     *Var
	a, b, c *Var // inputs; b is Affine's weight, c Affine's and LayerNorm's bias

	coef         *tensor.Matrix // WeightedSumConst coefficients
	aux1, aux2   *tensor.Matrix // LayerNormSlots' per-row means / inverse stddevs (1×R, the named rows); aux1: GELU's tanh, Cos's sin
	idx          []int32        // GatherRows/ScatterRows indices; the slot ops' and neighborhood reductions' slots (borrowed)
	labels       []float64      // BCEWithLogits labels (borrowed)
	refLo, refHi int            // Affine/ConcatCols part list: g.varRefs[refLo:refHi]
}

// backstep runs one entry's backward body, accumulating into input Grads.
// Each case mirrors its op's forward definition; guards on NeedsGrad match
// the recording-time semantics (an entry is only pushed when the output
// carries gradient, but individual inputs may still be constants).
func (g *Graph) backstep(e *tapeEntry) {
	switch e.op {
	case opAffine:
		w, bias := e.b, e.c
		if bias.NeedsGrad() {
			tensor.AddRowSumsInto(bias.Grad, e.out.Grad)
		}
		// dXₚ += dO @ Wₚᵀ and dWₚ += Xₚᵀ @ dO per part; a constant's nil Grad
		// leaves its half out.
		vals, grads := g.matScratch[:0], g.gradScratch[:0]
		for _, p := range g.varRefs[e.refLo:e.refHi] {
			vals, grads = append(vals, p.Val), append(grads, p.Grad)
		}
		g.matScratch, g.gradScratch = vals, grads
		tensor.MatMulPartsGradInto(w.Grad, grads, e.out.Grad, w.Val, vals)

	case opAdd:
		if e.a.NeedsGrad() {
			tensor.AddInto(e.a.Grad, e.a.Grad, e.out.Grad)
		}
		if e.b.NeedsGrad() {
			tensor.AddInto(e.b.Grad, e.b.Grad, e.out.Grad)
		}

	case opConcatCols:
		rows := e.out.Rows()
		off := 0
		for _, p := range g.varRefs[e.refLo:e.refHi] {
			w := p.Cols()
			if p.NeedsGrad() {
				for i := 0; i < rows; i++ {
					src := e.out.Grad.Row(i)[off : off+w]
					dst := p.Grad.Row(i)
					for j, v := range src {
						dst[j] += v
					}
				}
			}
			off += w
		}

	case opReshape:
		for i, v := range e.out.Grad.Data {
			e.a.Grad.Data[i] += v
		}

	case opGatherRows:
		tensor.ScatterAddRows(e.a.Grad, e.out.Grad, e.idx)

	case opScatterRows:
		tensor.GatherAddRows(e.a.Grad, e.out.Grad, e.idx)

	case opLeakyReLU:
		for i, v := range e.a.Val.Data {
			d := e.out.Grad.Data[i]
			if v < 0 {
				d *= e.scalar
			}
			e.a.Grad.Data[i] += d
		}

	case opGELU:
		for i, t := range e.aux1.Data {
			e.a.Grad.Data[i] += e.out.Grad.Data[i] * mathx.GELUGradTanh(e.a.Val.Data[i], t)
		}

	case opCos:
		for i, sin := range e.aux1.Data {
			e.a.Grad.Data[i] -= e.out.Grad.Data[i] * sin
		}

	case opSoftmaxSlots:
		// dx_j = s_j (dy_j - Σ_k dy_k s_k) over each row's named slots.
		s, dy, dx := e.out.Val.Data, e.out.Grad.Data, e.a.Grad.Data
		for lo, hi := 0, 0; lo < len(e.idx); lo = hi {
			hi = rowEnd(e.idx, lo, e.a.Cols())
			named := e.idx[lo:hi]
			var dot float64
			for _, k := range named {
				dot += dy[k] * s[k]
			}
			for _, j := range named {
				dx[j] += s[j] * (dy[j] - dot)
			}
		}

	case opLogSoftmaxSlots:
		// dx_j = dy_j - softmax_j Σ_k dy_k over each row's named slots.
		logp, dy, dx := e.out.Val.Data, e.out.Grad.Data, e.a.Grad.Data
		for lo, hi := 0, 0; lo < len(e.idx); lo = hi {
			hi = rowEnd(e.idx, lo, e.a.Cols())
			named := e.idx[lo:hi]
			var sum float64
			for _, k := range named {
				sum += dy[k]
			}
			for _, j := range named {
				dx[j] += dy[j] - math.Exp(logp[j])*sum
			}
		}

	case opGroupMean:
		inv := 1 / float64(e.group)
		for r, s := range e.idx {
			src := e.out.Grad.Row(int(s) / e.group)
			dst := e.a.Grad.Row(r)
			for j, v := range src {
				dst[j] += v * inv
			}
		}

	case opWeightedSumConst:
		d := e.out.Grad.Data[0]
		for i := range e.a.Grad.Data {
			e.a.Grad.Data[i] += d * e.coef.Data[i]
		}

	case opBCEWithLogits:
		d := e.out.Grad.Data[0] / float64(len(e.labels))
		for i, y := range e.labels {
			e.a.Grad.Data[i] += d * (mathx.Sigmoid(e.a.Val.Data[i]) - y)
		}

	case opLayerNormSlots:
		// Rows ascending. An unnamed row normalized a zero row: its x̂ is
		// +0, so its gain term dy·(+0) is ±0, which leaves a gradient that
		// started at +0 as it is (DESIGN.md §6); its input gradient has no
		// row to go to.
		a, dGain, dBias := e.a, gradData(e.b), gradData(e.c)
		r := 0
		for row := 0; row < e.out.Rows(); row++ {
			dy := e.out.Grad.Row(row)
			if r < len(e.idx) && int(e.idx[r]) == row {
				layerNormRowGrad(gradRow(a, r), a.Val.Row(r), dy, e.b.Val.Data, dGain, dBias, e.aux1.Data[r], e.aux2.Data[r])
				r++
			} else if dBias != nil {
				for j, d := range dy[:len(dBias)] {
					dBias[j] += d
				}
			}
		}

	case opGroupedScore:
		// The named slots ascending; slot s's score gradient is out.Grad
		// element s times the scale.
		q, keys := e.a, e.b
		for r, s := range e.idx {
			ds := e.scalar * e.out.Grad.Data[s]
			if ds == 0 {
				continue
			}
			gi := int(s) / e.group
			if q.NeedsGrad() {
				dq := q.Grad.Row(gi)
				for d, kv := range keys.Val.Row(r) {
					dq[d] += ds * kv
				}
			}
			if keys.NeedsGrad() {
				dk := keys.Grad.Row(r)
				for d, qv := range q.Val.Row(gi) {
					dk[d] += ds * qv
				}
			}
		}

	case opGroupedWeightedSum:
		// Padding has no value row: its weight gradient stays +0, the dot
		// product with a zero row.
		w, vals := e.a, e.b
		for r, s := range e.idx {
			dOut := e.out.Grad.Row(int(s) / e.group)
			if w.NeedsGrad() {
				var dot float64
				for j, v := range vals.Val.Row(r) {
					dot += dOut[j] * v
				}
				w.Grad.Data[s] += dot
			}
			if vals.NeedsGrad() {
				dv := vals.Grad.Row(r)
				wv := w.Val.Data[s]
				for j, d := range dOut {
					dv[j] += wv * d
				}
			}
		}

	case opGroupedMatMulLeftSlots:
		// A constant input's Grad is nil, which is how the kernel is told
		// to leave that half out.
		tensor.GroupedMatMulLeftSlotsGradInto(e.a.Grad, e.b.Grad, e.out.Grad, e.a.Val, e.b.Val, e.idx)

	default:
		panic("autograd: unknown tape op")
	}
}

// layerNormRowGrad is one row of LayerNorm's backward: x the row's input, dy
// its output gradient, gain the gain's values, mean and invStd the row's
// statistics. It adds the row's terms to dGain and dBias and its input
// gradient to dx; a nil one (a constant's) is left out.
func layerNormRowGrad(dx, x, dy, gain, dGain, dBias []float64, mean, invStd float64) {
	c := float64(len(x))
	dy, gain = dy[:len(x)], gain[:len(x)]
	if dGain != nil {
		dGain = dGain[:len(x)]
	}
	if dBias != nil {
		dBias = dBias[:len(x)]
	}
	// x̂_j = (x_j - mean)·invStd
	var sumDyG, sumDyGXhat float64
	for j, v := range x {
		xhat := (v - mean) * invStd
		dg := dy[j] * gain[j]
		sumDyG += dg
		sumDyGXhat += dg * xhat
		if dGain != nil {
			dGain[j] += dy[j] * xhat
		}
		if dBias != nil {
			dBias[j] += dy[j]
		}
	}
	if dx == nil {
		return
	}
	dx = dx[:len(x)]
	for j, v := range x {
		xhat := (v - mean) * invStd
		dg := dy[j] * gain[j]
		dx[j] += invStd * (dg - sumDyG/c - xhat*sumDyGXhat/c)
	}
}

// gradData is v's gradient as a slice, nil for a constant.
func gradData(v *Var) []float64 {
	if !v.NeedsGrad() {
		return nil
	}
	return v.Grad.Data
}

// gradRow is row i of v's gradient, nil for a constant.
func gradRow(v *Var, i int) []float64 {
	if !v.NeedsGrad() {
		return nil
	}
	return v.Grad.Row(i)
}

// rowEnd returns the end of the run of ascending slots, from lo on, that lie
// in slot slots[lo]'s row of a layout with cols slots per row.
func rowEnd(slots []int32, lo, cols int) int {
	row := int(slots[lo]) / cols
	hi := lo + 1
	for hi < len(slots) && int(slots[hi])/cols == row {
		hi++
	}
	return hi
}
