package autograd

import "taser/internal/tensor"

// GroupedScore computes per-neighborhood attention logits: with keys holding
// B groups of `group` consecutive rows, out[g][k] = q.Row(g)·keys.Row(g·group+k).
// This is q·Kᵀ restricted to each root's own neighborhood (TGAT, Eq. 7).
func (g *Graph) GroupedScore(q, keys *Var, group int) *Var {
	b := keys.Rows() / group
	o := g.out(b, group, q.NeedsGrad() || keys.NeedsGrad())
	tensor.GroupedScoreInto(o.Val, q.Val, keys.Val, group)
	if o.NeedsGrad() {
		g.push(tapeEntry{op: opGroupedScore, out: o, a: q, b: keys, group: group})
	}
	return o
}

// GroupedWeightedSum combines values per neighborhood:
// out.Row(g) = Σ_k w[g][k]·vals.Row(g·group+k). With w = softmax scores this
// completes the attention combiner.
func (g *Graph) GroupedWeightedSum(w, vals *Var, group int) *Var {
	b := vals.Rows() / group
	o := g.out(b, vals.Cols(), w.NeedsGrad() || vals.NeedsGrad())
	tensor.GroupedWeightedSumInto(o.Val, w.Val, vals.Val, group)
	if o.NeedsGrad() {
		g.push(tapeEntry{op: opGroupedWeightedSum, out: o, a: w, b: vals, group: group})
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
