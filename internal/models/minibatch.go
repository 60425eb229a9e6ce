// Package models implements the two backbone TGNNs TASER is evaluated on
// (§II-B): TGAT's self-attention temporal aggregator with a learnable time
// encoding (Eqs. 3–7) and GraphMixer's MLP-Mixer aggregator with a fixed
// time encoding (Eqs. 8–9), plus the link-prediction edge decoder. Both
// models consume the same MiniBatch layout so the training loop, neighbor
// finders and adaptive sampler compose with either.
package models

import (
	"fmt"

	"taser/internal/autograd"
	"taser/internal/tensor"
)

// LayerBlock holds one hop of sampled neighborhoods in the flat layout
// produced by the samplers: target i's neighbors occupy rows
// [i·Budget, (i+1)·Budget) of every per-neighbor array.
type LayerBlock struct {
	NumTargets int
	Budget     int

	// NbrNodes are the flattened neighbor node ids (−1 for padding). The
	// model itself only needs them for diagnostics; the adaptive sampler's
	// encoder consumes them for frequency/identity encodings.
	NbrNodes []int32
	// EdgeFeat holds sliced edge features, (T·Budget)×dE (dE may be 0).
	EdgeFeat *tensor.Matrix
	// DeltaT is the per-entry timespan t_target − t_edge, (T·Budget)×1.
	DeltaT *tensor.Matrix
	// Mask is 1 for valid entries, 0 for padding, T×Budget.
	Mask *tensor.Matrix
	// MaskBias is (Mask−1)·1e9, added to attention logits so padded entries
	// vanish under softmax.
	MaskBias *tensor.Matrix
	// Valid lists the flat slot indices (i·Budget+j) of the valid entries,
	// ascending. FinishMask builds it from Mask; the models run every
	// per-neighbor stage on these rows only, so a Mask edited afterwards
	// without another FinishMask fails Validate.
	Valid []int32
}

// NewLayerBlock allocates a block for t targets with the given budget and
// edge-feature width.
func NewLayerBlock(t, budget, edgeDim int) *LayerBlock {
	return &LayerBlock{
		NumTargets: t,
		Budget:     budget,
		NbrNodes:   make([]int32, t*budget),
		EdgeFeat:   tensor.New(t*budget, edgeDim),
		DeltaT:     tensor.New(t*budget, 1),
		Mask:       tensor.New(t, budget),
		MaskBias:   tensor.New(t, budget),
		Valid:      make([]int32, 0, t*budget),
	}
}

// Reset reshapes the block in place for reuse. Backing storage is reused when
// capacity allows; buffer pools call this to make the steady-state minibatch
// build path allocation-free. Everything but EdgeFeat is zeroed as in a fresh
// NewLayerBlock(t, budget, edgeDim); EdgeFeat is not cleared (NaN under
// TASER_ARENA_POISON, tensor.Matrix.ResizeUninit), because the build slices
// every one of its rows right after the fill — a copy for a real edge, a zero
// row for padding.
func (b *LayerBlock) Reset(t, budget, edgeDim int) {
	b.NumTargets, b.Budget = t, budget
	n := t * budget
	if cap(b.NbrNodes) < n {
		b.NbrNodes = make([]int32, n)
	} else {
		b.NbrNodes = b.NbrNodes[:n]
		for i := range b.NbrNodes {
			b.NbrNodes[i] = 0
		}
	}
	b.EdgeFeat.ResizeUninit(n, edgeDim)
	b.DeltaT.Resize(n, 1)
	b.Mask.Resize(t, budget)
	b.MaskBias.Resize(t, budget)
	b.Valid = b.Valid[:0]
}

// SetEntry fills neighbor slot (i, j) as valid with the given timespan.
func (b *LayerBlock) SetEntry(i, j int, node int32, deltaT float64) {
	s := i*b.Budget + j
	b.NbrNodes[s] = node
	b.DeltaT.Data[s] = deltaT
	b.Mask.Data[s] = 1
	b.MaskBias.Data[s] = 0
}

// FinishMask must be called after all SetEntry calls: it writes the −1e9
// bias for every slot that remained padding and indexes the others in Valid.
func (b *LayerBlock) FinishMask() {
	b.Valid = b.Valid[:0]
	for s, v := range b.Mask.Data {
		if v == 0 {
			b.MaskBias.Data[s] = -1e9
			b.NbrNodes[s] = -1
		} else {
			b.Valid = append(b.Valid, int32(s))
		}
	}
}

// CheckValid reports whether valid is exactly the ascending list of mask's
// nonzero slots — the invariant FinishMask establishes, here and on the
// adaptive sampler's CandidateSet. The compact forward reads only the rows
// valid names, so a mask edited behind FinishMask's back must fail loudly
// instead of silently dropping (or admitting) a slot.
func CheckValid(mask *tensor.Matrix, valid []int32) error {
	n := 0
	for s, v := range mask.Data {
		if v == 0 {
			continue
		}
		if n >= len(valid) || valid[n] != int32(s) {
			return fmt.Errorf("models: valid-slot index is stale at mask slot %d (FinishMask not called after the last mask edit?)", s)
		}
		n++
	}
	if n != len(valid) {
		return fmt.Errorf("models: valid-slot index lists %d slots, mask has %d", len(valid), n)
	}
	return nil
}

// MiniBatch is the fully materialized input of one TGNN forward pass.
// Layers[0] is the innermost aggregation (operating on raw features);
// Layers[L−1] is the outermost, whose targets are the batch roots.
//
// Layout invariant: the targets of Layers[k−1] are Layers[k]'s targets
// followed by Layers[k]'s flattened neighbors, so the embeddings produced by
// aggregation k−1 line up as [target rows | neighbor rows] for aggregation k.
// LeafFeat holds h⁰ (raw node features, width may be 0) for Layers[0]'s
// targets followed by their neighbors.
type MiniBatch struct {
	Layers   []*LayerBlock
	LeafFeat *tensor.Matrix
}

// Validate checks the layout invariant and every block's valid-slot index;
// models call it before forward.
func (mb *MiniBatch) Validate() error {
	if len(mb.Layers) == 0 {
		return fmt.Errorf("models: minibatch has no layers")
	}
	for k := 1; k < len(mb.Layers); k++ {
		inner, outer := mb.Layers[k-1], mb.Layers[k]
		want := outer.NumTargets * (1 + outer.Budget)
		if inner.NumTargets != want {
			return fmt.Errorf("models: layer %d has %d targets, want %d (outer targets+neighbors)",
				k-1, inner.NumTargets, want)
		}
	}
	for k, blk := range mb.Layers {
		if err := CheckValid(blk.Mask, blk.Valid); err != nil {
			return fmt.Errorf("layer %d: %w", k, err)
		}
	}
	leaf := mb.Layers[0]
	if mb.LeafFeat.Rows != leaf.NumTargets*(1+leaf.Budget) {
		return fmt.Errorf("models: leaf features have %d rows, want %d",
			mb.LeafFeat.Rows, leaf.NumTargets*(1+leaf.Budget))
	}
	return nil
}

// Roots returns the number of root targets (outermost layer).
func (mb *MiniBatch) Roots() int { return mb.Layers[len(mb.Layers)-1].NumTargets }

// CoTrainInfo exposes the internals of the outermost aggregation that the
// REINFORCE sample loss needs (Eqs. 25–26): it is captured during Forward
// and consumed by the adaptive package after Backward has populated
// Out.Grad = dL/dh.
type CoTrainInfo struct {
	Budget int
	Out    *autograd.Var // roots×d final embeddings

	// TGAT (Eq. 25): normalized attention and raw scores over every slot,
	// and the value rows of the valid slots only.
	Attn   *autograd.Var // roots×n
	Scores *autograd.Var // roots×n (unnormalized a_ij)
	Vals   *autograd.Var // len(Slots)×d

	// GraphMixer (Eq. 26, folded form): the mixed tokens of the valid slots
	// only.
	Tokens *autograd.Var // len(Slots)×d

	// Slots numbers the rows of Vals (TGAT) or Tokens (GraphMixer): row r
	// belongs to slot Slots[r] = b·n+p of the roots·n layout, ascending. A
	// slot it does not name is padding and has no row. Borrowed, like the
	// Vars: read it before the graph's Reset and the minibatch's release.
	Slots []int32
}

// TGNN is the interface shared by both backbones.
type TGNN interface {
	// Forward computes root embeddings; info captures co-training internals
	// for the outermost layer.
	Forward(g *autograd.Graph, mb *MiniBatch) (out *autograd.Var, info *CoTrainInfo)
	// NumLayers reports the hop depth (TGAT: 2, GraphMixer: 1).
	NumLayers() int
	// HiddenDim reports the embedding width.
	HiddenDim() int
	// Params exposes all trainable parameters.
	Params() []*autograd.Var
	// Clone returns an independent deep copy (same architecture, same
	// current parameter values, fresh gradients) — what the online
	// fine-tuner trains so the serving copy stays immutable between
	// weight publications.
	Clone() TGNN
}
