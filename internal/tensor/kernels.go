package tensor

import (
	"fmt"
	"math"
)

// Row kernels. Degenerate shapes are uniform across the package: a kernel
// whose input has zero rows or zero columns is a no-op (there is nothing to
// read or write — SoftmaxSlotsInto in particular must not index the first
// named element of an empty row), while an invalid grouping parameter
// (group ≤ 0) panics with an explicit message. Inner loops hoist their
// bounds: every slice indexed by the loop variable is pre-sliced to the range
// length, so the compiler eliminates the per-element checks
// (scripts/bce_check.sh guards this).

// SoftmaxSlotsInto writes into each row of dst the softmax of src's row over
// the row's named slots, or with log its log-softmax: slot s is element s of
// the row-major data, in row s / src.Cols, and slots is strictly ascending.
// On the named slots it computes the plain row softmax's arithmetic — their
// max, exp(x − max) summed in ascending slot order, then ×(1/sum), or
// x − (max + log(sum)) — and writes +0 everywhere else, so a row without a
// named slot is all +0. dst must not alias src.
//
// Each row walks its positions against its run of named slots with one
// cursor, so no element access goes through the index. On a layout holding
// −1e9 where the index names nothing, naming every slot instead (the padded
// oracles' call) only adds exp terms that underflow to +0, which change no
// sum that started at +0.
func SoftmaxSlotsInto(dst, src *Matrix, slots []int32, log bool) {
	src.shapeCheck(dst, "SoftmaxSlots")
	checkSlots("SoftmaxSlots", slots, len(src.Data))
	c := src.Cols
	r := 0
	for i := 0; i < src.Rows; i++ {
		end := groupEnd(slots, r, i, c)
		named := slots[r:end]
		r = end
		in := src.Data[i*c : i*c+c]
		out := dst.Data[i*c : i*c+c][:len(in)]
		if len(named) == 0 {
			clear(out)
			continue
		}
		base := int32(i * c)
		m := in[named[0]-base]
		rest := named
		for j, v := range in {
			if len(rest) > 0 && rest[0]-base == int32(j) {
				if v > m {
					m = v
				}
				rest = rest[1:]
			}
		}
		var sum float64
		rest = named
		for j, v := range in {
			out[j] = 0
			if len(rest) > 0 && rest[0]-base == int32(j) {
				e := math.Exp(v - m)
				if !log {
					out[j] = e
				}
				sum += e
				rest = rest[1:]
			}
		}
		if !log {
			inv := 1 / sum
			for j := range out {
				out[j] *= inv // +0 stays +0
			}
			continue
		}
		lse := m + math.Log(sum)
		rest = named
		for j, v := range in {
			if len(rest) > 0 && rest[0]-base == int32(j) {
				out[j] = v - lse
				rest = rest[1:]
			}
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
	if src.Cols == 1 { // a column (TGAT's Δt): one load per row, not a copy call
		out := dst.Data[:len(idx)]
		for i, id := range idx {
			out[i] = src.Data[id]
		}
		return
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
// inverse — and zeroes every row idx does not name, writing each row of dst
// once: walking the strictly ascending idx, it clears the gap before each
// named row and the tail after the last.
func ScatterRowsInto(dst, src *Matrix, idx []int32) {
	if src.Rows != len(idx) || dst.Cols != src.Cols {
		panic(fmt.Sprintf("tensor: ScatterRows src %dx%d for %d idx into width %d",
			src.Rows, src.Cols, len(idx), dst.Cols))
	}
	checkSlots("ScatterRows", idx, dst.Rows)
	c := src.Cols
	next := 0 // first row of dst not yet written
	for i, id := range idx {
		row := int(id) * c
		clear(dst.Data[next*c : row])
		copy(dst.Data[row:row+c], src.Data[i*c:i*c+c])
		next = int(id) + 1
	}
	clear(dst.Data[next*c:])
}

// checkSlots panics unless slots is strictly ascending within [0, n): the
// contract of every kernel that walks a slot index against a layout of n
// slots (a row each, or a neighbor slot each).
func checkSlots(op string, slots []int32, n int) {
	prev := int32(-1)
	for i, s := range slots {
		if s <= prev {
			panic(fmt.Sprintf("tensor: %s slot %d (entry %d) is negative or not above the one before: the index must be strictly ascending", op, s, i))
		}
		prev = s
	}
	if int(prev) >= n {
		panic(fmt.Sprintf("tensor: %s slot %d outside %d slots", op, prev, n))
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

// The neighborhood reductions read a compact operand against the padded
// layout of `group` slots per group: operand row r is slot slots[r], which is
// slot slots[r] % group of group slots[r] / group. slots is strictly
// ascending (checkSlots), so the sums walk the groups in order with one
// cursor (groupEnd). A slot the index does not name contributes nothing — it
// scores exactly +0, and the sums skip it. With every slot named they
// perform the adds of a dense loop over the padded layout, in its order; over
// a zero-padded layout the terms they skip are products with, or sums of, +0
// rows, which change no accumulator that started at +0 (an accumulator that
// starts at +0 is never −0), so the slot form is bitwise the dense one for
// finite inputs.

// groupEnd returns the end of the run of slots, from r on, that lie in group
// g (slots [g·group, (g+1)·group)): rows [r, groupEnd) are group g's.
func groupEnd(slots []int32, r, g, group int) int {
	limit := (g + 1) * group
	for r < len(slots) && int(slots[r]) < limit {
		r++
	}
	return r
}

// GroupMeanInto averages each group's rows: dst row g = (Σ src rows in
// group g) / group, a slot without a row in src counting as a zero row. dst
// has one row per group.
func GroupMeanInto(dst, src *Matrix, slots []int32, group int) {
	if group <= 0 {
		panic(fmt.Sprintf("tensor: GroupMean group %d must be positive", group))
	}
	if src.Rows != len(slots) || dst.Cols != src.Cols {
		panic(fmt.Sprintf("tensor: GroupMean %dx%d for %d slots into %dx%d",
			src.Rows, src.Cols, len(slots), dst.Rows, dst.Cols))
	}
	checkSlots("GroupMean", slots, dst.Rows*group)
	c := src.Cols
	inv := 1 / float64(group)
	r := 0
	for g := 0; g < dst.Rows; g++ {
		out := dst.Data[g*c : g*c+c]
		clear(out)
		end := groupEnd(slots, r, g, group)
		for ; r+4 <= end; r += 4 {
			v0 := src.Data[r*c : r*c+c][:len(out)]
			v1 := src.Data[r*c+c : r*c+2*c][:len(out)]
			v2 := src.Data[r*c+2*c : r*c+3*c][:len(out)]
			v3 := src.Data[r*c+3*c : r*c+4*c][:len(out)]
			for j := range out {
				t := out[j] // four sequential adds, rows ascending
				t += v0[j]
				t += v1[j]
				t += v2[j]
				t += v3[j]
				out[j] = t
			}
		}
		for ; r < end; r++ {
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

// GroupedScoreInto computes per-group dot products over the named slots:
// scores[g][k] = q.Row(g) · keys.Row(r) for the key row r whose slot is
// g·group+k, and exactly +0 for a slot no key row names. scores is
// q.Rows×group; keys has one row per slot. Zero-width embeddings (d == 0)
// score 0 everywhere.
func GroupedScoreInto(scores, q, keys *Matrix, slots []int32, group int) {
	if group <= 0 {
		panic(fmt.Sprintf("tensor: GroupedScore group %d must be positive", group))
	}
	if keys.Rows != len(slots) || q.Cols != keys.Cols || scores.Rows != q.Rows || scores.Cols != group {
		panic(fmt.Sprintf("tensor: GroupedScore %dx%d keys for %d slots, %dx%d queries into %dx%d",
			keys.Rows, keys.Cols, len(slots), q.Rows, q.Cols, scores.Rows, scores.Cols))
	}
	checkSlots("GroupedScore", slots, q.Rows*group)
	clear(scores.Data)
	d := keys.Cols
	g := int32(group)
	r := 0
	// Four keys per pass, each against its own neighborhood's query row
	// (neighborhoods hold a few valid slots each, so a pass would rarely
	// fill from one): four independent sums in flight.
	for ; r+4 <= len(slots); r += 4 {
		sl := slots[r : r+4]
		q0 := q.Data[int(sl[0]/g)*d : int(sl[0]/g)*d+d]
		q1 := q.Data[int(sl[1]/g)*d : int(sl[1]/g)*d+d][:len(q0)]
		q2 := q.Data[int(sl[2]/g)*d : int(sl[2]/g)*d+d][:len(q0)]
		q3 := q.Data[int(sl[3]/g)*d : int(sl[3]/g)*d+d][:len(q0)]
		k0 := keys.Data[r*d : r*d+d][:len(q0)]
		k1 := keys.Data[r*d+d : r*d+2*d][:len(q0)]
		k2 := keys.Data[r*d+2*d : r*d+3*d][:len(q0)]
		k3 := keys.Data[r*d+3*d : r*d+4*d][:len(q0)]
		var s0, s1, s2, s3 float64
		for j, qv := range q0 {
			s0 += qv * k0[j]
			s1 += q1[j] * k1[j]
			s2 += q2[j] * k2[j]
			s3 += q3[j] * k3[j]
		}
		scores.Data[sl[0]] = s0
		scores.Data[sl[1]] = s1
		scores.Data[sl[2]] = s2
		scores.Data[sl[3]] = s3
	}
	for ; r < len(slots); r++ {
		s := slots[r]
		qrow := q.Data[int(s/g)*d : int(s/g)*d+d]
		krow := keys.Data[r*d : r*d+d][:len(qrow)]
		var sum float64
		for j, qv := range qrow {
			sum += qv * krow[j]
		}
		scores.Data[s] = sum
	}
}

// GroupedWeightedSumInto computes, for each group g,
// dst.Row(g) = Σ w[g][k] · vals.Row(r) over the value rows r whose slot
// g·group+k the index names, k ascending per element. Over the named slots
// the sum is dense — exact zeros in w (rare for softmax weights) are
// multiplied through rather than branched around. dst is w.Rows×vals.Cols.
func GroupedWeightedSumInto(dst, w, vals *Matrix, slots []int32, group int) {
	if group <= 0 {
		panic(fmt.Sprintf("tensor: GroupedWeightedSum group %d must be positive", group))
	}
	b := w.Rows
	if w.Cols != group || vals.Rows != len(slots) || dst.Rows != b || dst.Cols != vals.Cols {
		panic(fmt.Sprintf("tensor: GroupedWeightedSum %dx%d weights, %dx%d values for %d slots into %dx%d",
			w.Rows, w.Cols, vals.Rows, vals.Cols, len(slots), dst.Rows, dst.Cols))
	}
	checkSlots("GroupedWeightedSum", slots, b*group)
	c := vals.Cols
	if c == 0 {
		return
	}
	r := 0
	for g := 0; g < b; g++ {
		wrow := w.Data[g*group : g*group+group]
		out := dst.Data[g*c : g*c+c]
		clear(out)
		end := groupEnd(slots, r, g, group)
		base := int32(g * group)
		for ; r+4 <= end; r += 4 {
			sl := slots[r : r+4]
			wv0, wv1, wv2, wv3 := wrow[sl[0]-base], wrow[sl[1]-base], wrow[sl[2]-base], wrow[sl[3]-base]
			v0 := vals.Data[r*c : r*c+c][:len(out)]
			v1 := vals.Data[r*c+c : r*c+2*c][:len(out)]
			v2 := vals.Data[r*c+2*c : r*c+3*c][:len(out)]
			v3 := vals.Data[r*c+3*c : r*c+4*c][:len(out)]
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
		for ; r < end; r++ {
			wv := wrow[slots[r]-base]
			vrow := vals.Data[r*c : r*c+c][:len(out)]
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
