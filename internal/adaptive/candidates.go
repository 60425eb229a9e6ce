package adaptive

import (
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
	Mask     *tensor.Matrix // B×M validity mask
	MaskBias *tensor.Matrix // B×M, (mask−1)·1e9 for masked softmax
	// Valid lists the flat slot indices (i·M+j) of the valid candidates,
	// ascending. FinishMask builds it from Mask; the sampler encodes, mixes
	// channels and decodes these rows only.
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
		Mask:       tensor.New(b, m),
		MaskBias:   tensor.New(b, m),
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
	c.Mask.Resize(b, m)
	c.MaskBias.Resize(b, m)
	c.Valid = c.Valid[:0]
	c.TargetFeat.ResizeUninit(b, nodeDim)
}

// SetEntry marks candidate slot (i, j) valid.
func (c *CandidateSet) SetEntry(i, j int, node int32, deltaT float64) {
	s := i*c.M + j
	c.Nodes[s] = node
	c.DeltaT[s] = deltaT
	c.Mask.Data[s] = 1
}

// FinishMask writes padding markers for untouched slots and indexes the
// others in Valid.
func (c *CandidateSet) FinishMask() {
	c.Valid = c.Valid[:0]
	for s, v := range c.Mask.Data {
		if v == 0 {
			c.Nodes[s] = -1
			c.MaskBias.Data[s] = -1e9
		} else {
			c.MaskBias.Data[s] = 0
			c.Valid = append(c.Valid, int32(s))
		}
	}
}

// ValidCount returns the number of valid candidates of root i.
func (c *CandidateSet) ValidCount(i int) int {
	n := 0
	for j := 0; j < c.M; j++ {
		if c.Mask.Data[i*c.M+j] == 1 {
			n++
		}
	}
	return n
}
