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

// GroupedScore computes per-neighborhood attention logits over the named
// slots: out[g][k] = q.Row(g)·keys.Row(r) for the key row r of slot g·group+k,
// and +0 where no key row names the slot. This is q·Kᵀ restricted to each
// root's own neighborhood (TGAT, Eq. 7). out is q.Rows×group.
func (g *Graph) GroupedScore(q, keys *Var, slots []int32, group int) *Var {
	o := g.out(q.Rows(), group, q.NeedsGrad() || keys.NeedsGrad())
	tensor.GroupedScoreInto(o.Val, q.Val, keys.Val, slots, group)
	if o.NeedsGrad() {
		g.push(tapeEntry{op: opGroupedScore, out: o, a: q, b: keys, idx: slots, group: group})
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

// GroupedMatMulLeft applies a shared K2×K weight on the left of every K×C
// group of src: out group g = w @ src group g. This is MLP-Mixer token mixing
// (Eq. 16) batched over neighborhoods.
func (g *Graph) GroupedMatMulLeft(w, src *Var, group int) *Var {
	k2 := w.Rows()
	b := src.Rows() / group
	o := g.out(b*k2, src.Cols(), w.NeedsGrad() || src.NeedsGrad())
	tensor.GroupedMatMulLeftInto(o.Val, w.Val, src.Val, group)
	if o.NeedsGrad() {
		g.push(tapeEntry{op: opGroupedMatMulLeft, out: o, a: w, b: src, group: group})
	}
	return o
}
