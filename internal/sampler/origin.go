package sampler

import (
	"taser/internal/mathx"
	"taser/internal/tgraph"
)

// OriginFinder reproduces the reference neighbor finder shipped with the
// TGAT/GraphMixer codebases: single-threaded, with the temporal pivot found
// by a forward linear scan over each node's (time-sorted) adjacency. This is
// the "Origin Neigh Finder" baseline of Fig. 3(a) and the Prep. bottleneck
// of Fig. 1.
//
// The reference implementation is pure Python; its cost per visited
// adjacency element is dominated by CPython bytecode dispatch, which is what
// makes it three orders of magnitude slower than TASER's GPU finder in the
// paper. Since this reproduction is compiled Go, the finder emulates that
// dispatch cost with originOverhead synthetic operations per element visited;
// DESIGN.md documents the substitution.
type OriginFinder struct {
	tcsr    tgraph.Adjacency
	rng     *mathx.RNG
	scratch fillScratch
}

// originOverhead is the number of emulated interpreter operations charged per
// adjacency element visited: the measured CPython-vs-Go ratio for an
// index-and-compare loop.
const originOverhead = 60

// NewOriginFinder builds the finder over the given packed adjacency.
func NewOriginFinder(t tgraph.Adjacency, rng *mathx.RNG) *OriginFinder {
	return &OriginFinder{tcsr: t, rng: rng}
}

// Name implements Finder.
func (f *OriginFinder) Name() string { return "origin-cpu" }

// ArbitraryOrder implements Finder: the linear scan restarts per query, so
// any order works (slowly).
func (f *OriginFinder) ArbitraryOrder() bool { return true }

// Sample implements Finder sequentially, one target at a time.
func (f *OriginFinder) Sample(targets []Target, budget int, policy Policy, out *Result) error {
	if err := validate(targets, budget, out); err != nil {
		return err
	}
	for i, tgt := range targets {
		nbr, ts, eid := f.tcsr.Adj(tgt.Node)
		pivot := f.tcsr.PivotLinear(tgt.Node, tgt.Time)
		f.interpret(pivot + budget)
		if pivot == 0 {
			continue
		}
		fill(policy, out, i, nbr, ts, eid, pivot, budget, tgt.Time, f.rng, &f.scratch)
	}
	return nil
}

// interpret burns originOverhead synthetic operations per element, emulating
// CPython dispatch for `elements` adjacency entries. The LCG chain defeats
// dead-code elimination.
func (f *OriginFinder) interpret(elements int) {
	x := uint64(elements) | 1
	for i := 0; i < elements*originOverhead; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	if x == 42 { // never true; keeps the loop observable
		panic("sampler: interpreter emulation sentinel")
	}
}
