package main

import (
	"taser/internal/adaptive"
	"taser/internal/train"
)

// workloads are the benchmark's four sets of inputs. Four is the ceiling for
// runs this long; serve.Fleet, internal/replica and internal/finetune are
// deliberately outside them, so a claim about those starts with a change
// that adds a workload.
func workloads() []*workload {
	taser := trainSpec{
		dataset: "wikipedia",
		scale:   func(o options) float64 { return pick(o, 1.0, 0.05) },
		cfg: func(o options) train.Config {
			return train.Config{
				Model: train.ModelTGAT, Finder: train.FinderGPU, Hidden: 24,
				BatchSize: pick(o, 32, 8), N: 10, M: 25,
				AdaBatch: true, AdaNeighbor: true, Decoder: adaptive.DecoderGATv2,
				CacheRatio: 0.2, EvalNegatives: 9, MaxEvalEdges: pick(o, 150, 2),
			}
		},
		lapSteps:     func(o options) int { return o.scaled(10, 1) },
		warm:         func(o options) int { return pick(o, 14, 1) },
		lapEvalEdges: func(o options) int { return pick(o, 30, 2) }, evalCalls: 3,
	}
	mixer := trainSpec{
		dataset: "gdelt",
		// A lap is one epoch, so the lap size is the dataset's event count.
		scale: func(o options) float64 { return 0.5 * o.scale() },
		cfg: func(o options) train.Config {
			return train.Config{
				Model: train.ModelGraphMixer, Finder: train.FinderGPU, Hidden: 24,
				BatchSize: pick(o, 150, 16), N: 10,
				CacheRatio: 0.2, EvalNegatives: 9, MaxEvalEdges: pick(o, 1000, 4),
			}
		},
		pipelined:    true,
		warm:         func(o options) int { return pick(o, 2, 1) },
		lapEvalEdges: func(o options) int { return pick(o, 150, 4) }, evalCalls: 3,
	}
	cold := coldSpec{
		serveSpec: serveSpec{
			dataset: "wikipedia",
			scale:   func(o options) float64 { return pick(o, 1.0, 0.05) },
			model:   train.ModelTGAT, pretrainSteps: func(o options) int { return pick(o, 28, 2) },
			pretrainBatch: 50, cacheSize: 0,
			warmRequests: func(o options) int { return pick(o, 500, 32) },
			probeEdges:   func(o options) int { return pick(o, 250, 5) },
		},
		callers: 16, lapOps: func(o options) int { return o.scaled(3000, 16) },
		ingestRate: 100, ingestAll: func(o options) int { return o.scaled(1500, 8) },
		sideBlocks: func(o options) int { return pick(o, 125, 1) },
	}
	mixed := httpSpec{
		serveSpec: serveSpec{
			dataset: "gdelt",
			scale:   func(o options) float64 { return pick(o, 1.0, 0.03) },
			model:   train.ModelGraphMixer, pretrainSteps: func(o options) int { return pick(o, 40, 2) },
			pretrainBatch: 150, cacheSize: 4096, durable: true, maxQueue: 64,
			warmRequests: func(o options) int { return pick(o, 500, 20) },
			probeEdges:   func(o options) int { return pick(o, 400, 5) },
		},
		conns: 2, rate: 250, lapSlots: func(o options) int { return o.scaled(375, 8) },
		predictShare: 0.64, embedShare: 0.16, zipf: 1.1, limitMS: 100,
	}
	return []*workload{
		{
			name:   "train-taser-tgat",
			laps:   10,
			opNote: "op = one synchronous TrainStep; side op = one validation edge ranked inside EvalMRR",
			setup:  taser.setup,
		},
		{
			name:   "train-base-mixer",
			laps:   10,
			opNote: "op = one Pipeline.Step of a pipelined epoch; side op = one validation edge ranked inside EvalMRR",
			setup:  mixer.setup,
		},
		{
			name:   "serve-cold",
			laps:   12,
			opNote: "op = one in-process PredictLink (closed loop, 16 callers, uniform nodes, paced ingest alongside); side op = one 256-event ingest block with the snapshot it publishes",
			setup:  cold.setup,
		},
		{
			name: "serve-http-mixed",
			laps: 10,
			// Which embeddings are cached when the probe runs depends on
			// request timing, so two runs of one seed may differ slightly.
			qualityTol: 0.01,
			tailCap:    0.95,
			opNote:     "op = one predict or embed POST timed from its due instant (open loop, 2 keep-alive connections, Zipf nodes); side op = one ingest POST of the same schedule",
			setup:      mixed.setup,
		},
	}
}

// pick chooses the real size or the self-test's toy size.
func pick[T any](o options, real, tiny T) T {
	if o.tiny {
		return tiny
	}
	return real
}
