package autograd

import "taser/internal/tensor"

// The neighborhood reductions take their per-slot operand compact: one row
// per entry of slots, the strictly ascending slots of the padded layout of
// `group` slots per neighborhood that the rows belong to (slot s is position
// s % group of neighborhood s / group). A slot the index does not name is
// padding: it scores exactly +0 and adds nothing to a sum, exactly what a
// zero row in the padded layout would give (tensor's slot kernels say why
// that is bitwise). slots is borrowed until Backward/Reset; Graph.Ints
// provides index storage with exactly that lifetime.

// GroupedScore computes per-neighborhood scaled attention logits over the
// named slots: out[g][k] = (q.Row(g)·keys.Row(r))·scale for the key row r of
// slot g·group+k, and +0 where no key row names the slot. This is q·Kᵀ/√d
// restricted to each root's own neighborhood with scale = 1/√d (TGAT, Eq. 7;
// the sampler's trans head, Eq. 20). out is q.Rows×group.
func (g *Graph) GroupedScore(q, keys *Var, slots []int32, group int, scale float64) *Var {
	o := g.out(q.Rows(), group, q.NeedsGrad() || keys.NeedsGrad())
	tensor.GroupedScoreInto(o.Val, q.Val, keys.Val, slots, group, scale)
	if o.NeedsGrad() {
		g.push(tapeEntry{op: opGroupedScore, out: o, a: q, b: keys, idx: slots, group: group, scalar: scale})
	}
	return o
}

// GroupedWeightedSum combines values per neighborhood over the named slots:
// out.Row(g) = Σ w[g][k]·vals.Row(r) over the value rows r of slots g·group+k.
// With w = softmax scores this completes the attention combiner. out is
// w.Rows×vals.Cols.
func (g *Graph) GroupedWeightedSum(w, vals *Var, slots []int32, group int) *Var {
	o := g.out(w.Rows(), vals.Cols(), w.NeedsGrad() || vals.NeedsGrad())
	tensor.GroupedWeightedSumInto(o.Val, w.Val, vals.Val, slots, group)
	if o.NeedsGrad() {
		g.push(tapeEntry{op: opGroupedWeightedSum, out: o, a: w, b: vals, idx: slots, group: group})
	}
	return o
}

// GroupMean averages each of rows neighborhoods over its `group` slots: a
// holds one row per named slot, and padding counts as a zero row
// (GraphMixer's neighborhood mean, Eq. 9). out is rows×a.Cols.
func (g *Graph) GroupMean(a *Var, slots []int32, rows, group int) *Var {
	o := g.out(rows, a.Cols(), a.NeedsGrad())
	tensor.GroupMeanInto(o.Val, a.Val, slots, group)
	if o.NeedsGrad() {
		g.push(tapeEntry{op: opGroupMean, out: o, a: a, idx: slots, group: group})
	}
	return o
}

// GroupedMatMulLeftSlots is MLP-Mixer token mixing (Eq. 16) batched over
// neighborhoods, at the named output rows: a shared K×H weight w on the left
// of every H-row group of src, row i of out being row s = slots[i]
// (strictly ascending) of the stacked per-group products, w row s % K @ src
// group s / K. The mixer names every row of its tokenUp product
// (RowRange) and only the valid tokens' rows of its tokenDown product, all
// that is read downstream. A named row is bitwise the same row however many
// of its neighbors are named; gradients are bitwise those of naming every
// row wherever the unnamed rows' output gradient would have been zero
// (DESIGN.md §6).
func (g *Graph) GroupedMatMulLeftSlots(w, src *Var, slots []int32) *Var {
	o := g.out(len(slots), src.Cols(), w.NeedsGrad() || src.NeedsGrad())
	tensor.GroupedMatMulLeftSlotsInto(o.Val, w.Val, src.Val, slots)
	if o.NeedsGrad() {
		g.push(tapeEntry{op: opGroupedMatMulLeftSlots, out: o, a: w, b: src, idx: slots})
	}
	return o
}
