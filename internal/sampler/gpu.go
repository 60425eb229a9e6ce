package sampler

import (
	"taser/internal/device"
	"taser/internal/mathx"
	"taser/internal/tgraph"
)

// GPUFinder is TASER's pure-GPU temporal neighbor finder (Algorithm 2),
// executed on the device simulator. The block-centric design maps one block
// per target node: the block binary-searches the temporal pivot (line 5),
// then its threads draw neighbors — most-recent by direct indexing (line 9)
// or uniform without replacement via a bitmap with collision detection
// (lines 11–14). Unlike the TGL pointer-array finder it supports arbitrary
// training order, which adaptive mini-batch selection requires.
//
// Each block's RNG stream is derived from (seed, call, block) alone, so a
// block's draw does not depend on which other targets share its call or on
// the order the blocks run in, as on hardware whose scheduler interleaves
// them.
type GPUFinder struct {
	tcsr tgraph.Adjacency
	gpu  *device.GPU
	seed uint64
	call uint64

	// Kernel state reused by every block, reseeded per block, so a launch
	// performs no heap allocation.
	rng     mathx.RNG
	scratch fillScratch
}

// NewGPUFinder builds the finder on the given device. The adjacency may be
// any packed layout (flat TCSR or an incrementally published AppendableTCSR);
// the kernel only reads per-node views.
func NewGPUFinder(t tgraph.Adjacency, gpu *device.GPU, seed uint64) *GPUFinder {
	return &GPUFinder{tcsr: t, gpu: gpu, seed: seed}
}

// Name implements Finder.
func (f *GPUFinder) Name() string { return "taser-gpu" }

// ArbitraryOrder implements Finder.
func (f *GPUFinder) ArbitraryOrder() bool { return true }

// Sample implements Finder. Each target is one simulated thread block.
func (f *GPUFinder) Sample(targets []Target, budget int, policy Policy, out *Result) error {
	if err := validate(targets, budget, out); err != nil {
		return err
	}
	f.call++
	call := f.call
	f.gpu.LaunchBlocks(len(targets), func(block int) {
		tgt := targets[block]
		nbr, ts, eid := f.tcsr.Adj(tgt.Node)
		// Line 5: single-thread binary search for the pivot.
		pivot := tgraph.Pivot(ts, tgt.Time)
		if pivot == 0 {
			return
		}
		if policy == MostRecent {
			fillMostRecent(out, block, nbr, ts, eid, pivot, budget)
			return
		}
		f.rng.Reseed(f.seed ^ call*0x9e3779b97f4a7c15 ^ uint64(block)*0xbf58476d1ce4e5b9)
		fill(policy, out, block, nbr, ts, eid, pivot, budget, tgt.Time, &f.rng, &f.scratch)
	})
	return nil
}
