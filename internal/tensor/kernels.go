package tensor

import (
	"fmt"
	"math"
)

// Row kernels. Degenerate shapes are uniform across the package: a kernel
// whose input has zero rows or zero columns is a no-op (there is nothing to
// read or write — SoftmaxRowsInto in particular must not index in[0] of an
// empty row), while an invalid grouping parameter (group ≤ 0) panics with an
// explicit message. Inner loops hoist their bounds: every slice indexed by
// the loop variable is pre-sliced to the range length, so the compiler
// eliminates the per-element checks (scripts/bce_check.sh guards this).

// SoftmaxRowsInto writes the row-wise softmax of src into dst (may alias).
// Zero-column input is a no-op.
func SoftmaxRowsInto(dst, src *Matrix) {
	src.shapeCheck(dst, "SoftmaxRows")
	if src.Cols == 0 {
		return
	}
	c := src.Cols
	for i := 0; i < src.Rows; i++ {
		in := src.Data[i*c : i*c+c]
		out := dst.Data[i*c : i*c+c][:len(in)]
		m := in[0]
		for _, v := range in[1:] {
			if v > m {
				m = v
			}
		}
		var sum float64
		for j, v := range in {
			e := math.Exp(v - m)
			out[j] = e
			sum += e
		}
		inv := 1 / sum
		for j := range out {
			out[j] *= inv
		}
	}
}

// LayerNormRowsInto normalizes each row of src to zero mean / unit variance,
// then applies the per-column gain g and bias b (both 1×C). meanOut/invStdOut
// (len Rows) receive the per-row statistics needed for the backward pass; they
// may be nil for inference. Zero-column input is a no-op (no statistics are
// written either: a zero-width row has no mean).
func LayerNormRowsInto(dst, src, g, b *Matrix, meanOut, invStdOut []float64, eps float64) {
	src.shapeCheck(dst, "LayerNormRows")
	if g.Cols != src.Cols || b.Cols != src.Cols {
		panic("tensor: LayerNormRows gain/bias width")
	}
	if src.Cols == 0 {
		return
	}
	cols := src.Cols
	c := float64(cols)
	for i := 0; i < src.Rows; i++ {
		in := src.Data[i*cols : i*cols+cols]
		out := dst.Data[i*cols : i*cols+cols][:len(in)]
		gd := g.Data[:len(in)]
		bd := b.Data[:len(in)]
		var mean float64
		for _, v := range in {
			mean += v
		}
		mean /= c
		var variance float64
		for _, v := range in {
			d := v - mean
			variance += d * d
		}
		variance /= c
		invStd := 1 / math.Sqrt(variance+eps)
		if meanOut != nil {
			meanOut[i] = mean
			invStdOut[i] = invStd
		}
		for j, v := range in {
			out[j] = (v-mean)*invStd*gd[j] + bd[j]
		}
	}
}

// GatherRowsInto copies src rows idx[i] into dst row i.
func GatherRowsInto(dst, src *Matrix, idx []int32) {
	if dst.Rows != len(idx) || dst.Cols != src.Cols {
		panic(fmt.Sprintf("tensor: GatherRows dst %dx%d for %d idx of width %d",
			dst.Rows, dst.Cols, len(idx), src.Cols))
	}
	for i, id := range idx {
		copy(dst.Row(i), src.Row(int(id)))
	}
}

// ScatterAddRows accumulates src row i into dst row idx[i].
func ScatterAddRows(dst, src *Matrix, idx []int32) {
	if src.Rows != len(idx) || dst.Cols != src.Cols {
		panic("tensor: ScatterAddRows shape")
	}
	c := src.Cols
	for i, id := range idx {
		srow := src.Data[i*c : i*c+c]
		drow := dst.Data[int(id)*c : int(id)*c+c][:len(srow)]
		for j, v := range srow {
			drow[j] += v
		}
	}
}

// ScatterRowsInto copies src row i into dst row idx[i] — GatherRowsInto's
// inverse. Rows of dst that idx does not name are left as they are; idx must
// be duplicate-free for the result to be independent of order.
func ScatterRowsInto(dst, src *Matrix, idx []int32) {
	if src.Rows != len(idx) || dst.Cols != src.Cols {
		panic(fmt.Sprintf("tensor: ScatterRows src %dx%d for %d idx into width %d",
			src.Rows, src.Cols, len(idx), dst.Cols))
	}
	for i, id := range idx {
		copy(dst.Row(int(id)), src.Row(i))
	}
}

// GatherAddRows accumulates src row idx[i] into dst row i (ScatterRowsInto's
// adjoint, as ScatterAddRows is GatherRowsInto's).
func GatherAddRows(dst, src *Matrix, idx []int32) {
	if dst.Rows != len(idx) || dst.Cols != src.Cols {
		panic("tensor: GatherAddRows shape")
	}
	c := src.Cols
	for i, id := range idx {
		drow := dst.Data[i*c : i*c+c]
		srow := src.Data[int(id)*c : int(id)*c+c][:len(drow)]
		for j, v := range srow {
			drow[j] += v
		}
	}
}

// ConcatColsInto writes the column-wise concatenation of parts into dst.
// Every part must have dst.Rows rows and the widths must sum to dst.Cols.
func ConcatColsInto(dst *Matrix, parts ...*Matrix) {
	off := 0
	for _, p := range parts {
		if p.Rows != dst.Rows {
			panic("tensor: ConcatCols row mismatch")
		}
		for i := 0; i < p.Rows; i++ {
			copy(dst.Row(i)[off:off+p.Cols], p.Row(i))
		}
		off += p.Cols
	}
	if off != dst.Cols {
		panic(fmt.Sprintf("tensor: ConcatCols widths sum to %d, dst has %d", off, dst.Cols))
	}
}

// GroupMeanInto averages each consecutive group of `group` rows of src into
// one row of dst: dst row g = mean(src rows [g*group, (g+1)*group)).
func GroupMeanInto(dst, src *Matrix, group int) {
	if group <= 0 {
		panic(fmt.Sprintf("tensor: GroupMean group %d must be positive", group))
	}
	if src.Rows%group != 0 || dst.Rows != src.Rows/group || dst.Cols != src.Cols {
		panic("tensor: GroupMean shape")
	}
	c := src.Cols
	inv := 1 / float64(group)
	for g := 0; g < dst.Rows; g++ {
		out := dst.Data[g*c : g*c+c]
		for j := range out {
			out[j] = 0
		}
		for r := g * group; r < (g+1)*group; r++ {
			row := src.Data[r*c : r*c+c][:len(out)]
			for j, v := range row {
				out[j] += v
			}
		}
		for j := range out {
			out[j] *= inv
		}
	}
}

// GroupedScoreInto computes per-group dot products: for each group g of
// `group` consecutive rows of keys, scores[g][k] = q.Row(g) · keys.Row(g*group+k).
// scores must be (keys.Rows/group)×group; q must be (keys.Rows/group)×d.
// Zero-width embeddings (d == 0) score 0 everywhere.
func GroupedScoreInto(scores, q, keys *Matrix, group int) {
	if group <= 0 {
		panic(fmt.Sprintf("tensor: GroupedScore group %d must be positive", group))
	}
	b := keys.Rows / group
	if keys.Rows%group != 0 || q.Rows != b || q.Cols != keys.Cols ||
		scores.Rows != b || scores.Cols != group {
		panic("tensor: GroupedScore shape")
	}
	d := keys.Cols
	for g := 0; g < b; g++ {
		qrow := q.Data[g*d : g*d+d]
		out := scores.Data[g*group : g*group+group]
		base := g * group
		k := 0
		// Four keys per pass share each loaded query element.
		for ; k+4 <= group; k += 4 {
			r := (base + k) * d
			k0 := keys.Data[r : r+d][:len(qrow)]
			k1 := keys.Data[r+d : r+2*d][:len(qrow)]
			k2 := keys.Data[r+2*d : r+3*d][:len(qrow)]
			k3 := keys.Data[r+3*d : r+4*d][:len(qrow)]
			var s0, s1, s2, s3 float64
			for j, qv := range qrow {
				s0 += qv * k0[j]
				s1 += qv * k1[j]
				s2 += qv * k2[j]
				s3 += qv * k3[j]
			}
			out[k] = s0
			out[k+1] = s1
			out[k+2] = s2
			out[k+3] = s3
		}
		for ; k < group; k++ {
			krow := keys.Data[(base+k)*d : (base+k)*d+d][:len(qrow)]
			var s float64
			for j, qv := range qrow {
				s += qv * krow[j]
			}
			out[k] = s
		}
	}
}

// GroupedWeightedSumInto computes, for each group g,
// dst.Row(g) = Σ_k w[g][k] · vals.Row(g*group+k). The sum is dense — exact
// zeros in w (rare for softmax weights) are multiplied through rather than
// branched around — and accumulates k-ascending per element, so results are
// bitwise-stable against the historical skip-based loop for finite inputs.
func GroupedWeightedSumInto(dst, w, vals *Matrix, group int) {
	if group <= 0 {
		panic(fmt.Sprintf("tensor: GroupedWeightedSum group %d must be positive", group))
	}
	b := vals.Rows / group
	if vals.Rows%group != 0 || w.Rows != b || w.Cols != group ||
		dst.Rows != b || dst.Cols != vals.Cols {
		panic("tensor: GroupedWeightedSum shape")
	}
	c := vals.Cols
	if c == 0 {
		return
	}
	for g := 0; g < b; g++ {
		wrow := w.Data[g*group : g*group+group]
		out := dst.Data[g*c : g*c+c]
		for j := range out {
			out[j] = 0
		}
		base := g * group
		k := 0
		for ; k+4 <= group; k += 4 {
			wv0, wv1, wv2, wv3 := wrow[k], wrow[k+1], wrow[k+2], wrow[k+3]
			r := (base + k) * c
			v0 := vals.Data[r : r+c][:len(out)]
			v1 := vals.Data[r+c : r+2*c][:len(out)]
			v2 := vals.Data[r+2*c : r+3*c][:len(out)]
			v3 := vals.Data[r+3*c : r+4*c][:len(out)]
			for j := range out {
				// Four sequential adds per element (not one fused sum):
				// accumulation order stays k-ascending, bitwise-equal to the
				// unrolled-by-one loop.
				t := out[j]
				t += wv0 * v0[j]
				t += wv1 * v1[j]
				t += wv2 * v2[j]
				t += wv3 * v3[j]
				out[j] = t
			}
		}
		for ; k < group; k++ {
			wv := wrow[k]
			vrow := vals.Data[(base+k)*c : (base+k)*c+c][:len(out)]
			for j, v := range vrow {
				out[j] += wv * v
			}
		}
	}
}

// GroupedMatMulLeftInto applies the shared K2×K matrix w on the left of each
// K×C group of src: for group g, dst rows [g*K2,(g+1)*K2) = w @ src rows
// [g*K,(g+1)*K). This is MLP-Mixer token mixing over per-root neighborhoods.
// Like its gradient below it is a driver over the dense products' 4×8 tile
// (matmul.go), one call per group, and shares their contract: dense (no
// zero-skip on w), k-ascending per element, bitwise-equal to the
// straight-line scalar loop.
func GroupedMatMulLeftInto(dst, w, src *Matrix, group int) {
	if group <= 0 {
		panic(fmt.Sprintf("tensor: GroupedMatMulLeft group %d must be positive", group))
	}
	b := tokenMixGroups(w, src, dst)
	if w.Cols != group {
		panic("tensor: GroupedMatMulLeft shape")
	}
	if b*w.Rows*group*src.Cols < parallelThreshold || workerLimit() == 1 {
		groupedMatMulLeftRange(dst, w, src, 0, b)
		return
	}
	ParallelRows(b, func(gLo, gHi int) { groupedMatMulLeftRange(dst, w, src, gLo, gHi) })
}

// groupedMatMulLeftRange computes groups [gLo, gHi) of GroupedMatMulLeftInto;
// a named function so the serial path allocates no closure.
func groupedMatMulLeftRange(dst, w, src *Matrix, gLo, gHi int) {
	k2, group := w.Rows, w.Cols
	for g := gLo; g < gHi; g++ {
		srcG := src.rowBlock(g*group, group)
		productRange(dst.rowBlock(g*k2, k2).Data, w.Data, group, 1, &srcG, nil, tileStore, 0, k2)
	}
}

// GroupedMatMulLeftGradInto accumulates GroupedMatMulLeftInto's gradients,
// either of which may be nil: dSrc group g += wᵀ @ dOut group g, each element
// summed over w's rows ascending on top of what dSrc holds (MatMulTransAInto's
// form), and dW += dOut group g @ (src group g)ᵀ, groups ascending, each
// group's element summed from zero and added once (MatMulTransBAddInto's
// form, against a k-major copy of the group when a tile fits).
func GroupedMatMulLeftGradInto(dW, dSrc, dOut, w, src *Matrix) {
	k2, group := w.Rows, w.Cols
	b := tokenMixGroups(w, src, dOut)
	var st []float64
	if dW != nil && tileFits(k2, group, src.Cols) {
		st = getTrans(src.Cols * group)
		defer putTrans(st)
	}
	for g := 0; g < b; g++ {
		dOutG := dOut.rowBlock(g*k2, k2)
		if dSrc != nil {
			productRange(dSrc.rowBlock(g*group, group).Data, w.Data, 1, group, &dOutG, nil, tileAccum, 0, group)
		}
		if dW != nil {
			srcG := src.rowBlock(g*group, group)
			if st != nil {
				transposeInto(st, &srcG)
			}
			transBRange(dW, &dOutG, &srcG, st, 0, k2)
		}
	}
}

// tokenMixGroups validates src (b·K)×C against out (b·K2)×C for a K2×K
// weight and returns b.
func tokenMixGroups(w, src, out *Matrix) int {
	if w.Cols <= 0 || src.Rows%w.Cols != 0 || out.Rows != src.Rows/w.Cols*w.Rows || out.Cols != src.Cols {
		panic(fmt.Sprintf("tensor: GroupedMatMulLeft %dx%d weight, %dx%d against %dx%d",
			w.Rows, w.Cols, src.Rows, src.Cols, out.Rows, out.Cols))
	}
	return src.Rows / w.Cols
}

// rowBlock returns a view (no copy) of the n consecutive rows from row lo.
func (m *Matrix) rowBlock(lo, n int) Matrix {
	return Matrix{Rows: n, Cols: m.Cols, Data: m.Data[lo*m.Cols : (lo+n)*m.Cols]}
}
