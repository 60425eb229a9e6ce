package sampler

import (
	"runtime"
	"sync"

	"taser/internal/mathx"
	"taser/internal/tgraph"
)

// TGLFinder reproduces TGL's high-performance parallel CPU neighbor finder.
// Its key data structure is a per-node pointer array: because TGL schedules
// mini-batches chronologically, each node's temporal pivot only ever moves
// forward, so root pivots are maintained in amortized O(1) instead of a
// search. Queries at older timestamps (multi-hop expansions, or roots of a
// randomly ordered batch) are still answered correctly by scanning backward
// from the pointer — but the amortization is lost, which is exactly the
// limitation that disqualifies this finder for TASER's randomly ordered
// adaptive mini-batches (§III-C): ArbitraryOrder reports false and the
// training harness refuses the combination.
type TGLFinder struct {
	tcsr    tgraph.Adjacency
	ptr     []int // per-node pivot pointer (monotone until Reset)
	workers int
	rngs    []*mathx.RNG // one per worker
	scratch []fillScratch
}

// NewTGLFinder builds the finder with one worker per host core.
func NewTGLFinder(t tgraph.Adjacency, rng *mathx.RNG) *TGLFinder {
	workers := runtime.GOMAXPROCS(0)
	f := &TGLFinder{
		tcsr:    t,
		ptr:     make([]int, t.NumNodes()),
		workers: workers,
		rngs:    make([]*mathx.RNG, workers),
		scratch: make([]fillScratch, workers),
	}
	for i := range f.rngs {
		f.rngs[i] = rng.Split()
	}
	return f
}

// Name implements Finder.
func (f *TGLFinder) Name() string { return "tgl-cpu" }

// ArbitraryOrder implements Finder: chronological order only.
func (f *TGLFinder) ArbitraryOrder() bool { return false }

// Reset rewinds all pointers for a new epoch.
func (f *TGLFinder) Reset() {
	for i := range f.ptr {
		f.ptr[i] = 0
	}
}

// Sample implements Finder.
func (f *TGLFinder) Sample(targets []Target, budget int, policy Policy, out *Result) error {
	if err := validate(targets, budget, out); err != nil {
		return err
	}
	// Phase 1 (sequential): advance the pointer arrays. Monotone per node,
	// amortized O(E) over a chronological epoch.
	for _, tgt := range targets {
		_, ts, _ := f.tcsr.Adj(tgt.Node)
		p := f.ptr[tgt.Node]
		for p < len(ts) && ts[p] < tgt.Time {
			p++
		}
		f.ptr[tgt.Node] = p
	}
	// Phase 2 (parallel): sample from the pointer-located pivots. Queries at
	// times older than a node's pointer (multi-hop targets, shared nodes in
	// one batch) scan backward — correct, but no longer amortized O(1).
	f.parallelTargets(len(targets), func(worker, i int) {
		tgt := targets[i]
		nbr, ts, eid := f.tcsr.Adj(tgt.Node)
		pivot := f.ptr[tgt.Node]
		for pivot > 0 && ts[pivot-1] >= tgt.Time {
			pivot--
		}
		if pivot == 0 {
			return
		}
		fill(policy, out, i, nbr, ts, eid, pivot, budget, tgt.Time, f.rngs[worker], &f.scratch[worker])
	})
	return nil
}

// parallelTargets fans i ∈ [0, n) across the worker pool in contiguous chunks.
func (f *TGLFinder) parallelTargets(n int, body func(worker, i int)) {
	workers := f.workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			body(0, i)
		}
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		if lo >= n {
			break
		}
		hi := min(lo+chunk, n)
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				body(w, i)
			}
		}(w, lo, hi)
	}
	wg.Wait()
}
