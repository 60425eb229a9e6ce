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
	opSub
	opMul
	opScale
	opConcatCols
	opReshape
	opGatherRows
	opScatterRows

	opSigmoid
	opTanh
	opLeakyReLU
	opGELU
	opCos
	opSoftmaxRows
	opLogSoftmaxRows

	opMeanAll
	opSumAll
	opGroupMean
	opWeightedSumConst
	opBCEWithLogits
	opLayerNormRows

	opGroupedScore
	opGroupedWeightedSum
	opGroupedMatMulLeft
	opKinds // count, for the test that must run every op
)

// tapeEntry is one recorded operation: a value (not a closure), so the tape
// slice is recycled across Graph.Reset with zero allocation. Fields are a
// union over the ops' needs; unused fields stay zero.
type tapeEntry struct {
	op     opKind
	group  int     // GroupMean/Grouped* neighborhood size
	scalar float64 // Scale factor, LeakyReLU slope

	out     *Var
	a, b, c *Var // inputs; b is Affine's weight, c Affine's and LayerNorm's bias

	coef         *tensor.Matrix // WeightedSumConst coefficients
	aux1, aux2   *tensor.Matrix // LayerNorm per-row means / inverse stddevs (1×R); aux1: GELU's tanh, Cos's sin
	idx          []int32        // GatherRows/ScatterRows indices, GroupMean/GroupedScore/GroupedWeightedSum slots (borrowed)
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

	case opSub:
		if e.a.NeedsGrad() {
			tensor.AddInto(e.a.Grad, e.a.Grad, e.out.Grad)
		}
		if e.b.NeedsGrad() {
			tensor.SubInto(e.b.Grad, e.b.Grad, e.out.Grad)
		}

	case opMul:
		if e.a.NeedsGrad() {
			for i, gv := range e.out.Grad.Data {
				e.a.Grad.Data[i] += gv * e.b.Val.Data[i]
			}
		}
		if e.b.NeedsGrad() {
			for i, gv := range e.out.Grad.Data {
				e.b.Grad.Data[i] += gv * e.a.Val.Data[i]
			}
		}

	case opScale:
		e.a.Grad.AxpyInPlace(e.scalar, e.out.Grad)

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

	case opSigmoid:
		for i, s := range e.out.Val.Data {
			e.a.Grad.Data[i] += e.out.Grad.Data[i] * s * (1 - s)
		}

	case opTanh:
		for i, t := range e.out.Val.Data {
			e.a.Grad.Data[i] += e.out.Grad.Data[i] * (1 - t*t)
		}

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

	case opSoftmaxRows:
		// dx_j = s_j (dy_j - Σ_k dy_k s_k)
		for i := 0; i < e.a.Rows(); i++ {
			s := e.out.Val.Row(i)
			dy := e.out.Grad.Row(i)
			var dot float64
			for k, sv := range s {
				dot += dy[k] * sv
			}
			dx := e.a.Grad.Row(i)
			for j, sv := range s {
				dx[j] += sv * (dy[j] - dot)
			}
		}

	case opLogSoftmaxRows:
		// dx_j = dy_j - softmax_j Σ_k dy_k
		for i := 0; i < e.a.Rows(); i++ {
			dy := e.out.Grad.Row(i)
			var sum float64
			for _, v := range dy {
				sum += v
			}
			logp := e.out.Val.Row(i)
			dx := e.a.Grad.Row(i)
			for j, lp := range logp {
				dx[j] += dy[j] - math.Exp(lp)*sum
			}
		}

	case opMeanAll:
		d := e.out.Grad.Data[0] / float64(len(e.a.Grad.Data))
		for i := range e.a.Grad.Data {
			e.a.Grad.Data[i] += d
		}

	case opSumAll:
		d := e.out.Grad.Data[0]
		for i := range e.a.Grad.Data {
			e.a.Grad.Data[i] += d
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

	case opLayerNormRows:
		a, gain, bias := e.a, e.b, e.c
		means, invStds := e.aux1.Data, e.aux2.Data
		c := float64(a.Cols())
		for i := 0; i < a.Rows(); i++ {
			x := a.Val.Row(i)
			dy := e.out.Grad.Row(i)
			mean, invStd := means[i], invStds[i]
			// xhat_j = (x_j - mean)·invStd
			var sumDyG, sumDyGXhat float64
			for j, v := range x {
				xhat := (v - mean) * invStd
				dg := dy[j] * gain.Val.Data[j]
				sumDyG += dg
				sumDyGXhat += dg * xhat
				if gain.NeedsGrad() {
					gain.Grad.Data[j] += dy[j] * xhat
				}
				if bias.NeedsGrad() {
					bias.Grad.Data[j] += dy[j]
				}
			}
			if a.NeedsGrad() {
				dx := a.Grad.Row(i)
				for j, v := range x {
					xhat := (v - mean) * invStd
					dg := dy[j] * gain.Val.Data[j]
					dx[j] += invStd * (dg - sumDyG/c - xhat*sumDyGXhat/c)
				}
			}
		}

	case opGroupedScore:
		// The named slots ascending; slot s's score gradient is out.Grad
		// element s.
		q, keys := e.a, e.b
		for r, s := range e.idx {
			ds := e.out.Grad.Data[s]
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

	case opGroupedMatMulLeft:
		// A constant input's Grad is nil, which is how the kernel is told
		// to leave that half out.
		tensor.GroupedMatMulLeftGradInto(e.a.Grad, e.b.Grad, e.out.Grad, e.a.Val, e.b.Val)

	default:
		panic("autograd: unknown tape op")
	}
}
