package sampler

import (
	"taser/internal/mathx"
	"taser/internal/tgraph"
)

// TGLFinder reproduces TGL's CPU neighbor finder.
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
	rng     *mathx.RNG
	scratch fillScratch
}

// NewTGLFinder builds the finder on a stream split from rng.
func NewTGLFinder(t tgraph.Adjacency, rng *mathx.RNG) *TGLFinder {
	return &TGLFinder{tcsr: t, ptr: make([]int, t.NumNodes()), rng: rng.Split()}
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
	// Phase 2: sample from the pointer-located pivots. Queries at times older
	// than a node's pointer (multi-hop targets, shared nodes in one batch)
	// scan backward — correct, but no longer amortized O(1).
	for i, tgt := range targets {
		nbr, ts, eid := f.tcsr.Adj(tgt.Node)
		pivot := f.ptr[tgt.Node]
		for pivot > 0 && ts[pivot-1] >= tgt.Time {
			pivot--
		}
		if pivot == 0 {
			continue
		}
		fill(policy, out, i, nbr, ts, eid, pivot, budget, tgt.Time, f.rng, &f.scratch)
	}
	return nil
}
