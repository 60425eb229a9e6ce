package train

import (
	"slices"

	"taser/internal/adaptive"
	"taser/internal/models"
	"taser/internal/sampler"
	"taser/internal/tensor"
)

// buildPool recycles every buffer the minibatch construction path
// materializes — layer blocks, candidate sets, finder results, leaf feature
// matrices, and the per-step target/id scratch slices — so the steady-state
// build path is (near-)allocation-free. Like its owner (a Trainer or an
// InferenceBuilder), it is single-goroutine state.
//
// Each family is one freeList, which knows a buffer by its capacity alone,
// so it holds no more buffers than were ever in flight at once, whatever
// sizes passed through it. The node and edge widths are fixed for a
// trainer, so the element count decides the fit.
//
// Ownership is move-semantics: a get transfers the buffer to the caller, a
// put transfers it back. Buffers handed to external callers (e.g. through
// Trainer.BuildMiniBatch) are simply never returned; the pool then allocates
// fresh ones, which keeps the exported API leak-proof.
type buildPool struct {
	blocks  freeList[*models.LayerBlock]
	sets    freeList[*adaptive.CandidateSet]
	results freeList[*sampler.Result]
	mats    freeList[*tensor.Matrix]
	targets sliceList[sampler.Target]
	ids     sliceList[int32]
	ints    sliceList[int]
}

func newBuildPool() *buildPool { return &buildPool{} }

// freeList is a free list of buffers, each filed with its capacity in
// elements, kept in ascending capacity. get takes the smallest free buffer
// that holds need elements or, when none does, the largest, which the
// caller's reshape then grows. Best fit, not the last buffer put back: that
// would hand evaluation's buffers to training steps and grow every buffer
// to evaluation's size.
type freeList[T any] struct {
	free []filed[T]
}

type filed[T any] struct {
	v   T
	cap int
}

// get removes the best-fitting buffer for need elements (of equal fits, the
// latest put); ok is false when the list is empty.
func (l *freeList[T]) get(need int) (v T, ok bool) {
	if len(l.free) == 0 {
		return v, false
	}
	i := min(l.atLeast(need), len(l.free)-1)
	v = l.free[i].v
	l.free = slices.Delete(l.free, i, i+1)
	return v, true
}

func (l *freeList[T]) put(v T, capacity int) {
	l.free = slices.Insert(l.free, l.atLeast(capacity), filed[T]{v, capacity})
}

// atLeast is the index of the first free buffer of capacity ≥ c.
func (l *freeList[T]) atLeast(c int) int {
	i, _ := slices.BinarySearchFunc(l.free, c, func(f filed[T], c int) int { return f.cap - c })
	return i
}

// sliceList is a freeList of []T scratch slices.
type sliceList[T any] struct{ freeList[[]T] }

// get returns an empty slice with capacity ≥ n. A free slice too small for
// n is dropped, as a reshape drops a grown buffer's old storage.
func (l *sliceList[T]) get(n int) []T {
	if s, ok := l.freeList.get(n); ok && cap(s) >= n {
		return s[:0]
	}
	return make([]T, 0, n)
}

// put takes a slice back; nil is ignored.
func (l *sliceList[T]) put(s []T) {
	if s != nil {
		l.freeList.put(s, cap(s))
	}
}

// getBlock returns a t×budget layer block with edge width edgeDim, zeroed
// but for a reused block's edge features, which the caller must slice
// (LayerBlock.Reset).
func (p *buildPool) getBlock(t, budget, edgeDim int) *models.LayerBlock {
	if blk, ok := p.blocks.get(t * budget); ok {
		blk.Reset(t, budget, edgeDim)
		return blk
	}
	return models.NewLayerBlock(t, budget, edgeDim)
}

func (p *buildPool) putBlock(blk *models.LayerBlock) { p.blocks.put(blk, cap(blk.NbrNodes)) }

// getSet returns a b×m candidate set, zeroed but for a reused set's feature
// matrices, which the caller must slice (CandidateSet.Reset).
func (p *buildPool) getSet(b, m, nodeDim, edgeDim int) *adaptive.CandidateSet {
	if cs, ok := p.sets.get(b * m); ok {
		cs.Reset(b, m, nodeDim, edgeDim)
		return cs
	}
	return adaptive.NewCandidateSet(b, m, nodeDim, edgeDim)
}

func (p *buildPool) putSet(cs *adaptive.CandidateSet) {
	if cs != nil {
		p.sets.put(cs, cap(cs.Nodes))
	}
}

// getResult returns a finder result; callers shape it via Finder.Sample.
func (p *buildPool) getResult() *sampler.Result {
	if res, ok := p.results.get(0); ok {
		return res
	}
	return &sampler.Result{}
}

func (p *buildPool) putResult(res *sampler.Result) {
	if res != nil {
		p.results.put(res, 0)
	}
}

// getMat returns a rows×cols matrix for the caller to slice into: a reused
// one is not cleared (tensor.Matrix.ResizeUninit).
func (p *buildPool) getMat(rows, cols int) *tensor.Matrix {
	if m, ok := p.mats.get(rows * cols); ok {
		return m.ResizeUninit(rows, cols)
	}
	return tensor.New(rows, cols)
}

func (p *buildPool) putMat(m *tensor.Matrix) { p.mats.put(m, cap(m.Data)) }
