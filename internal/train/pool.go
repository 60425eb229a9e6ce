package train

import (
	"sync"

	"taser/internal/adaptive"
	"taser/internal/models"
	"taser/internal/sampler"
	"taser/internal/tensor"
)

// blockKey identifies a LayerBlock shape class. In steady state a training
// run only ever materializes a handful of shapes (one per hop), so the free
// lists hit on every step after warm-up.
type blockKey struct{ t, budget, edgeDim int }

// csKey identifies a CandidateSet shape class.
type csKey struct{ b, m, nodeDim, edgeDim int }

// buildPool recycles every buffer the minibatch construction path
// materializes — layer blocks, candidate sets, finder results, leaf feature
// matrices, and the per-step target/id scratch slices — so the steady-state
// build path is (near-)allocation-free. It is safe for concurrent use (each
// free list locks itself): the pipelined loop acquires buffers on the
// prefetch goroutine and releases them on the consumer after the optimizer
// step.
//
// Ownership is move-semantics: a get transfers the buffer to the caller, a
// put transfers it back. Buffers handed to external callers (e.g. through
// Trainer.BuildMiniBatch) are simply never returned; the pool then allocates
// fresh ones, which keeps the exported API leak-proof.
type buildPool struct {
	blocks  keyedList[blockKey, models.LayerBlock]
	sets    keyedList[csKey, adaptive.CandidateSet]
	results keyedList[struct{}, sampler.Result]
	mats    keyedList[int, tensor.Matrix] // keyed by column count
	targets sliceList[sampler.Target]
	ids     sliceList[int32]
	ints    sliceList[int]
}

func newBuildPool() *buildPool { return &buildPool{} }

// keyedList is a free list of *T buffers bucketed by shape class K.
type keyedList[K comparable, T any] struct {
	mu   sync.Mutex
	free map[K][]*T
}

// get pops a buffer of class k, or returns nil when none is free.
func (l *keyedList[K, T]) get(k K) *T {
	l.mu.Lock()
	defer l.mu.Unlock()
	list := l.free[k]
	n := len(list)
	if n == 0 {
		return nil
	}
	l.free[k] = list[:n-1]
	return list[n-1]
}

// put takes a buffer of class k back; nil is ignored.
func (l *keyedList[K, T]) put(k K, v *T) {
	if v == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.free == nil {
		l.free = make(map[K][]*T)
	}
	l.free[k] = append(l.free[k], v)
}

// sliceList is a free list of []T scratch slices. get returns an empty slice
// with capacity ≥ hint; put takes one back (nil is ignored).
type sliceList[T any] struct {
	mu   sync.Mutex
	free [][]T
}

func (l *sliceList[T]) get(hint int) []T {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n := len(l.free); n > 0 {
		s := l.free[n-1]
		l.free = l.free[:n-1]
		if cap(s) >= hint {
			return s[:0]
		}
	}
	return make([]T, 0, hint)
}

func (l *sliceList[T]) put(s []T) {
	if s == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.free = append(l.free, s)
}

// getBlock returns a t×budget layer block with edge width edgeDim, zeroed
// but for a reused block's edge features, which the caller must slice
// (LayerBlock.Reset).
func (p *buildPool) getBlock(t, budget, edgeDim int) *models.LayerBlock {
	if blk := p.blocks.get(blockKey{t, budget, edgeDim}); blk != nil {
		blk.Reset(t, budget, edgeDim)
		return blk
	}
	return models.NewLayerBlock(t, budget, edgeDim)
}

func (p *buildPool) putBlock(blk *models.LayerBlock) {
	p.blocks.put(blockKey{blk.NumTargets, blk.Budget, blk.EdgeFeat.Cols}, blk)
}

// getSet returns a b×m candidate set, zeroed but for a reused set's feature
// matrices, which the caller must slice (CandidateSet.Reset).
func (p *buildPool) getSet(b, m, nodeDim, edgeDim int) *adaptive.CandidateSet {
	if cs := p.sets.get(csKey{b, m, nodeDim, edgeDim}); cs != nil {
		cs.Reset(b, m, nodeDim, edgeDim)
		return cs
	}
	return adaptive.NewCandidateSet(b, m, nodeDim, edgeDim)
}

func (p *buildPool) putSet(cs *adaptive.CandidateSet) {
	if cs != nil {
		p.sets.put(csKey{cs.B, cs.M, cs.NodeFeat.Cols, cs.EdgeFeat.Cols}, cs)
	}
}

// getResult returns a finder result; callers shape it via Finder.Sample.
func (p *buildPool) getResult() *sampler.Result {
	if res := p.results.get(struct{}{}); res != nil {
		return res
	}
	return &sampler.Result{}
}

func (p *buildPool) putResult(res *sampler.Result) { p.results.put(struct{}{}, res) }

// getMat returns a rows×cols matrix for the caller to slice into: a reused
// one is not cleared (tensor.Matrix.ResizeUninit).
func (p *buildPool) getMat(rows, cols int) *tensor.Matrix {
	if m := p.mats.get(cols); m != nil {
		return m.ResizeUninit(rows, cols)
	}
	return tensor.New(rows, cols)
}

func (p *buildPool) putMat(m *tensor.Matrix) { p.mats.put(m.Cols, m) }
