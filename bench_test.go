// Package taser's root benchmark file wires every paper experiment into
// `go test -bench`. Two kinds of benchmarks live here:
//
//   - Micro-benchmarks of the mechanisms behind each figure/table
//     (neighbor finders for Fig. 3a, cache policies for Fig. 3b / Table III,
//     epoch phases for Fig. 1 / Table III, variants for Table I).
//   - BenchmarkExperiment, which runs internal/bench's registry at a
//     miniature scale so `go test -bench=.` exercises every reported
//     experiment end to end. Full-scale reproductions are run with
//     cmd/taser-bench (see EXPERIMENTS.md).
package taser_test

import (
	"io"
	"testing"

	"taser/internal/adaptive"
	"taser/internal/bench"
	"taser/internal/cache"
	"taser/internal/datasets"
	"taser/internal/device"
	"taser/internal/mathx"
	"taser/internal/sampler"
	"taser/internal/train"
)

// benchDataset is shared by finder/cache micro-benchmarks.
func benchDataset(b *testing.B) *datasets.Dataset {
	b.Helper()
	return datasets.Reddit(0.2, 1)
}

func benchTargets(ds *datasets.Dataset, n int, seed uint64) []sampler.Target {
	rng := mathx.NewRNG(seed)
	targets := make([]sampler.Target, n)
	maxT := ds.Graph.Events[len(ds.Graph.Events)-1].Time
	for i := range targets {
		targets[i] = sampler.Target{
			Node: int32(rng.Intn(ds.Spec.NumNodes)),
			Time: maxT * (0.5 + 0.5*rng.Float64()),
		}
	}
	return targets
}

// --- Fig. 3(a): neighbor finders ---

func benchmarkFinder(b *testing.B, mk func(ds *datasets.Dataset) sampler.Finder, chrono bool) {
	ds := benchDataset(b)
	f := mk(ds)
	targets := benchTargets(ds, 512, 7)
	if chrono {
		// The TGL finder wants non-decreasing batch times.
		for i := range targets {
			targets[i].Time = ds.Graph.Events[len(ds.Graph.Events)-1].Time
		}
	}
	var out sampler.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.Sample(targets, 10, sampler.Uniform, &out); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFinderOrigin(b *testing.B) {
	benchmarkFinder(b, func(ds *datasets.Dataset) sampler.Finder {
		return sampler.NewOriginFinder(ds.TCSR, mathx.NewRNG(1))
	}, false)
}

func BenchmarkFinderTGL(b *testing.B) {
	benchmarkFinder(b, func(ds *datasets.Dataset) sampler.Finder {
		return sampler.NewTGLFinder(ds.TCSR, mathx.NewRNG(1))
	}, true)
}

func BenchmarkFinderGPU(b *testing.B) {
	benchmarkFinder(b, func(ds *datasets.Dataset) sampler.Finder {
		return sampler.NewGPUFinder(ds.TCSR, device.New(), 1)
	}, false)
}

// --- Fig. 3(b) / Table III: cache policies ---

func benchmarkCachePolicy(b *testing.B, mk func(rows, k int) cache.Policy) {
	const rows, k, accesses = 20000, 2000, 100000
	rng := mathx.NewRNG(2)
	weights := make([]float64, rows)
	for i := range weights {
		weights[i] = 1 / float64(i+1)
	}
	alias := mathx.NewAlias(weights)
	stream := make([]int32, accesses)
	for i := range stream {
		stream[i] = int32(alias.Draw(rng))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pol := mk(rows, k)
		for _, id := range stream {
			pol.Access(id)
		}
		pol.EndEpoch()
	}
}

func BenchmarkCacheFrequency(b *testing.B) {
	benchmarkCachePolicy(b, func(rows, k int) cache.Policy {
		return cache.NewFrequency(rows, k, cache.PaperEpsilon)
	})
}

func BenchmarkCacheLRU(b *testing.B) {
	benchmarkCachePolicy(b, func(rows, k int) cache.Policy {
		return cache.NewLRU(k)
	})
}

// --- Fig. 1 / Table III: one training step per pipeline stage ---

func benchmarkTrainStep(b *testing.B, cfg train.Config) {
	ds := datasets.Wikipedia(0.1, 3)
	cfg.Hidden, cfg.TimeDim, cfg.BatchSize = 16, 8, 64
	cfg.MaxEvalEdges = 10
	tr, err := train.New(cfg, ds)
	if err != nil {
		b.Fatal(err)
	}
	// Steady state is the quantity of interest: a few warmup steps fill the
	// buffer pools, the autograd tape and the arena shape classes so allocs/op
	// reports the recycled path, not the one-time warmup.
	for i := 0; i < 5; i++ {
		tr.TrainStep()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.TrainStep()
	}
}

// benchmarkTrainStepPipelined is benchmarkTrainStep through the asynchronous
// prefetch loop: per-op time approaches max(build, PP) instead of build + PP
// once GOMAXPROCS ≥ 2 (the producer needs its own core to hide behind PP).
func benchmarkTrainStepPipelined(b *testing.B, cfg train.Config) {
	ds := datasets.Wikipedia(0.1, 3)
	cfg.Hidden, cfg.TimeDim, cfg.BatchSize = 16, 8, 64
	cfg.MaxEvalEdges = 10
	tr, err := train.New(cfg, ds)
	if err != nil {
		b.Fatal(err)
	}
	p := tr.NewPipeline(0)
	b.Cleanup(p.Close)
	for i := 0; i < 5; i++ { // steady state, as in benchmarkTrainStep
		if _, ok := p.Step(); !ok {
			b.Fatal("pipeline exhausted during warmup")
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := p.Step(); !ok {
			b.Fatal("pipeline exhausted")
		}
	}
}

// BenchmarkStepBaselineOrigin is Table III's "Baseline" row.
func BenchmarkStepBaselineOrigin(b *testing.B) {
	benchmarkTrainStep(b, train.Config{Model: train.ModelTGAT, Finder: train.FinderOrigin})
}

// BenchmarkStepGPUFinder is Table III's "+GPU NF" row.
func BenchmarkStepGPUFinder(b *testing.B) {
	benchmarkTrainStep(b, train.Config{Model: train.ModelTGAT, Finder: train.FinderGPU})
}

// BenchmarkStepGPUFinderCache is Table III's "+20% Cache" row.
func BenchmarkStepGPUFinderCache(b *testing.B) {
	benchmarkTrainStep(b, train.Config{
		Model: train.ModelTGAT, Finder: train.FinderGPU, CacheRatio: 0.2,
	})
}

// BenchmarkStepTASER is the full pipeline with both adaptive components
// (Table I's TASER row / Table III's AS column).
func BenchmarkStepTASER(b *testing.B) {
	benchmarkTrainStep(b, train.Config{
		Model: train.ModelTGAT, Finder: train.FinderGPU, CacheRatio: 0.2,
		AdaBatch: true, AdaNeighbor: true, Decoder: adaptive.DecoderGATv2,
	})
}

// BenchmarkStepGraphMixer covers the second backbone.
func BenchmarkStepGraphMixer(b *testing.B) {
	benchmarkTrainStep(b, train.Config{
		Model: train.ModelGraphMixer, Finder: train.FinderGPU, CacheRatio: 0.2,
		AdaBatch: true, AdaNeighbor: true, Decoder: adaptive.DecoderLinear,
	})
}

// --- pipelined variants of the step benchmarks (this repo's async loop) ---

// BenchmarkStepPipelinedGPUFinderCache is the pipelined counterpart of
// BenchmarkStepGPUFinderCache (compare the two with benchstat).
func BenchmarkStepPipelinedGPUFinderCache(b *testing.B) {
	benchmarkTrainStepPipelined(b, train.Config{
		Model: train.ModelTGAT, Finder: train.FinderGPU, CacheRatio: 0.2,
	})
}

// BenchmarkStepPipelinedTASER is the pipelined counterpart of
// BenchmarkStepTASER: the Selection resolves consumer-side, candidate
// staging overlaps with PP, and the selector sees bounded-stale updates.
func BenchmarkStepPipelinedTASER(b *testing.B) {
	benchmarkTrainStepPipelined(b, train.Config{
		Model: train.ModelTGAT, Finder: train.FinderGPU, CacheRatio: 0.2,
		AdaBatch: true, AdaNeighbor: true, Decoder: adaptive.DecoderGATv2,
	})
}

// BenchmarkStepPipelinedGraphMixer is the pipelined counterpart of
// BenchmarkStepGraphMixer.
func BenchmarkStepPipelinedGraphMixer(b *testing.B) {
	benchmarkTrainStepPipelined(b, train.Config{
		Model: train.ModelGraphMixer, Finder: train.FinderGPU, CacheRatio: 0.2,
		AdaBatch: true, AdaNeighbor: true, Decoder: adaptive.DecoderLinear,
	})
}

// --- end-to-end experiment wrappers ---

func miniOptions() bench.Options {
	return bench.Options{
		Out: io.Discard, Scale: 0.02, Epochs: 1, Hidden: 8, TimeDim: 6,
		BatchSize: 64, MaxEvalEdges: 10, Seed: 5, Datasets: []string{"wikipedia"},
	}
}

// BenchmarkExperiment runs every experiment of `taser-bench -exp all` from
// internal/bench's registry as a sub-benchmark (-bench 'Experiment/table1').
func BenchmarkExperiment(b *testing.B) {
	for _, e := range bench.Experiments {
		if !e.InAll {
			continue
		}
		b.Run(e.Name, func(b *testing.B) {
			o := miniOptions()
			for i := 0; i < b.N; i++ {
				if err := e.Run(o); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
