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

// LayerNormSlotsInto normalizes each row of the dst.Rows×C layout that holds
// src row i at row slots[i] (strictly ascending) and a zero row everywhere
// else, without forming it, to zero mean / unit variance, then applies the
// per-column gain g and bias b (both 1×C): a named row is normalized from
// src, every other row is the normalization of a zero row, computed at the
// first such row and copied to the rest. With every row named it is plain
// row normalization. meanOut/invStdOut (len len(slots), or nil) receive the
// named rows' statistics. Every row of dst is written; zero-column input is a
// no-op (a zero-width row has no mean).
func LayerNormSlotsInto(dst, src, g, b *Matrix, slots []int32, meanOut, invStdOut []float64, eps float64) {
	if src.Rows != len(slots) || dst.Cols != src.Cols {
		panic(fmt.Sprintf("tensor: LayerNormSlots src %dx%d for %d slots into width %d",
			src.Rows, src.Cols, len(slots), dst.Cols))
	}
	checkNormParams(src, g, b)
	checkSlots("LayerNormSlots", slots, dst.Rows)
	if src.Cols == 0 {
		return
	}
	c := src.Cols
	next, pad := 0, -1 // first row not yet written; the normalized zero row
	for i, s := range slots {
		pad = normPadding(dst, next, int(s), pad, g.Data, b.Data, eps)
		mean, invStd := layerNormRow(dst.Data[int(s)*c:int(s)*c+c], src.Data[i*c:i*c+c], g.Data, b.Data, eps)
		if meanOut != nil {
			meanOut[i], invStdOut[i] = mean, invStd
		}
		next = int(s) + 1
	}
	normPadding(dst, next, dst.Rows, pad, g.Data, b.Data, eps)
}

// normPadding writes the normalization of a zero row into dst rows
// [lo, hi): at the first of them when no earlier row holds it (pad < 0),
// copied from row pad otherwise. It returns the row that holds it.
func normPadding(dst *Matrix, lo, hi, pad int, g, b []float64, eps float64) int {
	c := dst.Cols
	for r := lo; r < hi; r++ {
		row := dst.Data[r*c : r*c+c]
		if pad >= 0 {
			copy(row, dst.Data[pad*c:pad*c+c])
			continue
		}
		clear(row)
		layerNormRow(row, row, g, b, eps)
		pad = r
	}
	return pad
}

// layerNormRow normalizes in into out (which may be in itself: each element
// is read before it is written) with gain g and bias b, and returns the
// row's mean and inverse standard deviation.
func layerNormRow(out, in, g, b []float64, eps float64) (mean, invStd float64) {
	out, g, b = out[:len(in)], g[:len(in)], b[:len(in)]
	c := float64(len(in))
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
	invStd = 1 / math.Sqrt(variance+eps)
	for j, v := range in {
		out[j] = (v-mean)*invStd*g[j] + b[j]
	}
	return mean, invStd
}

// checkNormParams panics unless the gain and bias span src's columns.
func checkNormParams(src, g, b *Matrix) {
	if g.Cols != src.Cols || b.Cols != src.Cols {
		panic("tensor: LayerNorm gain/bias width")
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

// GroupedScoreInto computes per-group scaled dot products over the named
// slots: scores[g][k] = (q.Row(g) · keys.Row(r))·scale for the key row r whose
// slot is g·group+k, and exactly +0 for a slot no key row names. scores is
// q.Rows×group; keys has one row per slot. Zero-width embeddings (d == 0)
// score 0 everywhere.
func GroupedScoreInto(scores, q, keys *Matrix, slots []int32, group int, scale float64) {
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
		scores.Data[sl[0]] = s0 * scale
		scores.Data[sl[1]] = s1 * scale
		scores.Data[sl[2]] = s2 * scale
		scores.Data[sl[3]] = s3 * scale
	}
	for ; r < len(slots); r++ {
		s := slots[r]
		qrow := q.Data[int(s/g)*d : int(s/g)*d+d]
		krow := keys.Data[r*d : r*d+d][:len(qrow)]
		var sum float64
		for j, qv := range qrow {
			sum += qv * krow[j]
		}
		scores.Data[s] = sum * scale
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

// GroupedMatMulLeftSlotsInto is MLP-Mixer token mixing over per-root
// neighborhoods, at the named output rows. w is K×H and src holds b groups
// of H rows; the full product is (b·K)×C, group g's rows w @ src group g,
// and dst row i is its row s = slots[i]: w row s % K @ src group s / K,
// slots strictly ascending. Each run of consecutive slots within a group is
// one call of the dense products' 4×8 tile driver (matmul.go), w's rows
// [k0, k0+n) against the group, and shares its contract: dense (no
// zero-skip on w), k-ascending per element, bitwise-equal to the
// straight-line scalar loop. So a row is the same bits whichever runs it
// falls in; naming every row makes each group one run.
func GroupedMatMulLeftSlotsInto(dst, w, src *Matrix, slots []int32) {
	slotMixShapes(w, src, dst, slots)
	k, h, c := w.Rows, w.Cols, src.Cols
	for lo := 0; lo < len(slots); {
		hi := slotRun(slots, lo, k)
		g, k0 := int(slots[lo])/k, int(slots[lo])%k
		srcG := src.rowBlock(g*h, h)
		product(dst.Data[lo*c:hi*c], hi-lo, w.Data[k0*h:], h, 1, &srcG, nil, tileStore)
		lo = hi
	}
}

// GroupedMatMulLeftSlotsGradInto accumulates GroupedMatMulLeftSlotsInto's
// gradients from dOut (one row per slot), either of which may be nil: per
// run of consecutive slots [k0, k0+n) of group g, runs ascending,
// dSrc group g += w[k0:k0+n]ᵀ @ dOut[run] (each element summed over the
// run's rows ascending on top of what dSrc holds: MatMulTransAInto's form)
// and dW[k0:k0+n] += dOut[run] @ (src group g)ᵀ (each element summed from
// zero and added once: MatMulTransBAddInto's form, against a k-major copy
// of the group when a tile fits the run). With every row named that is the
// full product's gradient, one run per group; naming fewer leaves the
// unnamed rows' terms out, which is bitwise wherever their output gradient
// is a zero row (DESIGN.md §6).
func GroupedMatMulLeftSlotsGradInto(dW, dSrc, dOut, w, src *Matrix, slots []int32) {
	slotMixShapes(w, src, dOut, slots)
	k, h, c := w.Rows, w.Cols, src.Cols
	var st []float64 // group stG's k-major copy, for runs a tile fits
	stG := -1
	if dW != nil && tileFits(4, h, c) {
		st = getTrans(c * h)
		defer putTrans(st)
	}
	for lo := 0; lo < len(slots); {
		hi := slotRun(slots, lo, k)
		g, k0, n := int(slots[lo])/k, int(slots[lo])%k, hi-lo
		dOutR, srcG := dOut.rowBlock(lo, n), src.rowBlock(g*h, h)
		if dSrc != nil {
			product(dSrc.rowBlock(g*h, h).Data, h, w.Data[k0*h:], 1, h, &dOutR, nil, tileAccum)
		}
		if dW != nil {
			var bt []float64
			if st != nil && tileFits(n, h, c) {
				if stG != g {
					transposeInto(st, &srcG)
					stG = g
				}
				bt = st
			}
			dWR := dW.rowBlock(k0, n)
			transB(&dWR, &dOutR, &srcG, bt)
		}
		lo = hi
	}
}

// slotMixShapes validates the slot form of token mixing: a K×H weight
// (both positive), src of whole H-row groups, out with one row per slot and
// src's width, and slots strictly ascending within the groups' b·K rows.
func slotMixShapes(w, src, out *Matrix, slots []int32) {
	if w.Rows <= 0 || w.Cols <= 0 || src.Rows%w.Cols != 0 || out.Rows != len(slots) || out.Cols != src.Cols {
		panic(fmt.Sprintf("tensor: GroupedMatMulLeftSlots %dx%d weight, %dx%d source, %d slots into %dx%d",
			w.Rows, w.Cols, src.Rows, src.Cols, len(slots), out.Rows, out.Cols))
	}
	checkSlots("GroupedMatMulLeftSlots", slots, src.Rows/w.Cols*w.Rows)
}

// slotRun returns the end of the run of consecutive slots from lo on that
// lie in slot slots[lo]'s group of k.
func slotRun(slots []int32, lo, k int) int {
	hi := lo + 1
	for hi < len(slots) && slots[hi] == slots[hi-1]+1 && int(slots[hi])%k != 0 {
		hi++
	}
	return hi
}

// rowBlock returns a view (no copy) of the n consecutive rows from row lo.
func (m *Matrix) rowBlock(lo, n int) Matrix {
	return Matrix{Rows: n, Cols: m.Cols, Data: m.Data[lo*m.Cols : (lo+n)*m.Cols]}
}
