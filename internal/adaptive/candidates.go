package adaptive

import (
	"fmt"
	"slices"

	"taser/internal/models"
	"taser/internal/tensor"
)

// CandidateSet is the pre-sampled neighborhood the adaptive sampler scores:
// for each of B roots, M candidate neighbors drawn by the (static) neighbor
// finder, in the same flat padded layout the samplers emit. Feature matrices
// are sliced by the training loop (this is the extra feature traffic that
// makes the GPU cache matter, §III-D).
type CandidateSet struct {
	B, M int

	Nodes    []int32        // (B·M) candidate node ids, −1 padding
	DeltaT   []float64      // (B·M) timespan to the root's timestamp
	NodeFeat *tensor.Matrix // (B·M)×dN (dN may be 0)
	EdgeFeat *tensor.Matrix // (B·M)×dE (dE may be 0)
	// Valid lists the flat slot indices (i·M+j) of the valid candidates,
	// strictly ascending, and is the one record of them: SetEntry alone
	// writes it (models.AddSlot). The sampler encodes, mixes channels,
	// decodes and normalizes these slots only.
	Valid []int32

	// TargetFeat holds the roots' own node features, B×dN (Eq. 21).
	TargetFeat *tensor.Matrix
}

// NewCandidateSet allocates a set for b roots with m candidates each.
func NewCandidateSet(b, m, nodeDim, edgeDim int) *CandidateSet {
	return &CandidateSet{
		B:          b,
		M:          m,
		Nodes:      make([]int32, b*m),
		DeltaT:     make([]float64, b*m),
		NodeFeat:   tensor.New(b*m, nodeDim),
		EdgeFeat:   tensor.New(b*m, edgeDim),
		Valid:      make([]int32, 0, b*m),
		TargetFeat: tensor.New(b, nodeDim),
	}
}

// Reset reshapes the set in place for reuse. Backing storage is reused when
// capacity allows. Everything but the feature matrices is zeroed as in a
// fresh NewCandidateSet(b, m, nodeDim, edgeDim); NodeFeat, EdgeFeat and
// TargetFeat are not cleared (NaN under TASER_ARENA_POISON,
// tensor.Matrix.ResizeUninit), because the build slices every one of their
// rows right after the fill.
func (c *CandidateSet) Reset(b, m, nodeDim, edgeDim int) {
	c.B, c.M = b, m
	n := b * m
	if cap(c.Nodes) < n {
		c.Nodes = make([]int32, n)
		c.DeltaT = make([]float64, n)
	} else {
		c.Nodes = c.Nodes[:n]
		c.DeltaT = c.DeltaT[:n]
		for i := range c.Nodes {
			c.Nodes[i] = 0
			c.DeltaT[i] = 0
		}
	}
	c.NodeFeat.ResizeUninit(n, nodeDim)
	c.EdgeFeat.ResizeUninit(n, edgeDim)
	c.Valid = c.Valid[:0]
	c.TargetFeat.ResizeUninit(b, nodeDim)
}

// SetEntry marks candidate slot (i, j) valid.
func (c *CandidateSet) SetEntry(i, j int, node int32, deltaT float64) {
	s := i*c.M + j
	c.Nodes[s] = node
	c.DeltaT[s] = deltaT
	c.Valid = models.AddSlot(c.Valid, int32(s))
}

// FinishMask marks every slot Valid does not name as padding (Nodes −1);
// call it after the SetEntry calls that fill the set.
func (c *CandidateSet) FinishMask() { models.MarkPadding(c.Nodes, c.Valid) }

// Window makes w roots [lo, hi) of c and returns it: a set of hi−lo roots
// over c's own candidate, timespan and feature storage, whose Valid is its
// own, renumbered from root lo. Select over the windows of a set, in root
// order, draws what one Select over the whole set draws: a root's scores
// read its own candidates only, and its draws consume the sampler's RNG in
// the same order. w's matrix headers and Valid are reused across calls; it
// is valid until c is reset. A caller that draws a set larger than a
// training step window by window keeps the sampler graph at a step's size
// (Trainer.EvalMRR, DESIGN.md §7).
func (c *CandidateSet) Window(w *CandidateSet, lo, hi int) *CandidateSet {
	if lo < 0 || hi < lo || hi > c.B {
		panic(fmt.Sprintf("adaptive: window [%d, %d) of %d roots", lo, hi, c.B))
	}
	m := c.M
	w.B, w.M = hi-lo, m
	w.Nodes, w.DeltaT = c.Nodes[lo*m:hi*m], c.DeltaT[lo*m:hi*m]
	w.NodeFeat = rowWindow(w.NodeFeat, c.NodeFeat, lo*m, hi*m)
	w.EdgeFeat = rowWindow(w.EdgeFeat, c.EdgeFeat, lo*m, hi*m)
	w.TargetFeat = rowWindow(w.TargetFeat, c.TargetFeat, lo, hi)
	first, _ := slices.BinarySearch(c.Valid, int32(lo*m))
	end, _ := slices.BinarySearch(c.Valid, int32(hi*m))
	w.Valid = w.Valid[:0]
	for _, s := range c.Valid[first:end] {
		w.Valid = append(w.Valid, s-int32(lo*m))
	}
	return w
}

// rowWindow points dst (allocated when nil) at rows [lo, hi) of src.
func rowWindow(dst, src *tensor.Matrix, lo, hi int) *tensor.Matrix {
	if dst == nil {
		dst = new(tensor.Matrix)
	}
	dst.Rows, dst.Cols = hi-lo, src.Cols
	dst.Data = src.Data[lo*src.Cols : hi*src.Cols : hi*src.Cols]
	return dst
}
