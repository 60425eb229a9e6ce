package main

import (
	"time"

	"taser/internal/device"
	"taser/internal/sampler"
	"taser/internal/tgraph"
)

// newFinder builds the block-parallel finder every workload uses, on the
// simulated device sized to the current GOMAXPROCS.
func newFinder(adj tgraph.Adjacency, seed uint64) sampler.Finder {
	return sampler.NewGPUFinder(adj, device.New(), seed)
}

// samplerCounts accumulates what the finder was asked for and returned.
type samplerCounts struct {
	calls, targets, slots, filled int
}

// sampleNeighbors is one neighbor-finding call under a "sampler.Sample" span.
func sampleNeighbors(tr *tracer, parent, op int, f sampler.Finder, targets []sampler.Target,
	budget int, pol sampler.Policy, out *sampler.Result, c *samplerCounts) {
	id := tr.begin("sampler.Sample", parent, op)
	err := f.Sample(targets, budget, pol, out)
	tr.end(id)
	if err != nil {
		panic(err) // targets are generated by the benchmark; a failure is its bug
	}
	c.calls++
	c.targets += len(targets)
	c.slots += len(targets) * budget
	for _, n := range out.Counts {
		c.filled += int(n)
	}
}

// probeLaunch times an empty kernel dispatch on the simulated device.
func probeLaunch(blocks, reps int) float64 {
	gpu := device.New()
	gpu.LaunchBlocks(blocks, func(int) {}) // starts the worker pool
	start := time.Now()
	for i := 0; i < reps; i++ {
		gpu.LaunchBlocks(blocks, func(int) {})
	}
	return float64(time.Since(start)) / 1e3 / float64(reps)
}
