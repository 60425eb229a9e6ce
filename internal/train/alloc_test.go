package train

import (
	"runtime"
	"testing"

	"taser/internal/adaptive"
	"taser/internal/datasets"
)

// allocBudgetConfig is the full-pipeline configuration BenchmarkStepTASER
// measures: both adaptive components on, GPU finder, frequency cache.
func allocBudgetConfig() Config {
	return Config{
		Model: ModelTGAT, Finder: FinderGPU, CacheRatio: 0.2,
		AdaBatch: true, AdaNeighbor: true, Decoder: adaptive.DecoderGATv2,
		Hidden: 16, TimeDim: 8, BatchSize: 64, MaxEvalEdges: 10,
	}
}

// The allocation-regression guards below hold each warm step to exactly the
// number of heap allocations it makes today, the same quantity the benchmark
// gates as allocs_per_op with a 5 % bound (under one allocation per step on
// both training workloads): one more allocation per step fails here, in
// tier-1, instead of as a rejected benchmark run. For scale, a scratch buffer
// made per a @ bᵀ product is +14 per TASER step and the pre-arena execution
// stack made ~1,430.
//
// They pin GOMAXPROCS to 1 for their duration: with more, the parallel
// kernels (MatMul row fan-out, large GELU) legitimately allocate goroutine
// closures per call, and a budget loose enough for those would let a
// per-call allocation through.

// TestStepAllocBudget: a full TASER training step (build + adaptive selection
// + forward/backward + both optimizer steps).
func TestStepAllocBudget(t *testing.T) {
	const stepAllocBudget = 10
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ds := datasets.Wikipedia(0.1, 3)
	tr, err := New(allocBudgetConfig(), ds)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ { // warm the arena, pools and tape
		tr.TrainStep()
	}
	allocs := testing.AllocsPerRun(20, func() { tr.TrainStep() })
	t.Logf("allocs/step = %.1f (budget %d)", allocs, stepAllocBudget)
	if allocs > stepAllocBudget {
		t.Fatalf("TrainStep allocates %.1f times/step, budget %d", allocs, stepAllocBudget)
	}
}

// TestPipelinedStepAllocBudget: a base-GraphMixer step through the pipelined
// loop — the train-base-mixer shape, where the producer completes the whole
// static build and the consumer only runs the link-prediction step.
func TestPipelinedStepAllocBudget(t *testing.T) {
	const stepAllocBudget = 6.25
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ds := datasets.GDELT(0.03, 3)
	tr, err := New(Config{
		Model: ModelGraphMixer, Finder: FinderGPU, CacheRatio: 0.2,
		Hidden: 16, TimeDim: 8, BatchSize: 64,
	}, ds)
	if err != nil {
		t.Fatal(err)
	}
	// Whole pipelines of a fixed length, so the producer prepares exactly the
	// batches the consumer trains on and the count does not depend on how far
	// ahead it happens to be; opening and closing a pipeline is amortized
	// over its steps, as in a TrainEpochPipelined lap.
	const steps = 20
	tr.trainPipelined(8) // warm the arena, pools and tape
	allocs := testing.AllocsPerRun(5, func() { tr.trainPipelined(steps) }) / steps
	t.Logf("allocs/pipelined-step = %.2f (budget %v)", allocs, stepAllocBudget)
	if allocs > stepAllocBudget {
		t.Fatalf("a pipelined step allocates %.2f times, budget %v", allocs, stepAllocBudget)
	}
}

// TestTrainStepGraphReuseMatchesFresh pins the §7 equivalence contract at the
// training level: a trainer running on reused arena-backed graphs produces
// bitwise-identical losses, evaluation metrics and parameters to one that
// builds a fresh unpooled graph every step.
func TestTrainStepGraphReuseMatchesFresh(t *testing.T) {
	for _, cfg := range []Config{
		{Model: ModelTGAT, Finder: FinderGPU, Hidden: 12, TimeDim: 6, BatchSize: 32, MaxEvalEdges: 8},
		allocBudgetConfig(),
		{Model: ModelGraphMixer, Finder: FinderGPU, AdaBatch: true, AdaNeighbor: true,
			Decoder: adaptive.DecoderLinear, Hidden: 12, TimeDim: 6, BatchSize: 32, MaxEvalEdges: 8},
	} {
		cfg.Seed = 9
		ds := datasets.Wikipedia(0.08, 4)
		reused, err := New(cfg, ds)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := New(cfg, ds)
		if err != nil {
			t.Fatal(err)
		}
		fresh.freshGraphs = true
		// Poison the reused trainer's arenas: if any step consumed a stale
		// checkout the losses would go NaN and diverge.
		reused.modelGraph(false).Arena().SetPoison(true)
		reused.samplerGraph(false).Arena().SetPoison(true)

		for step := 0; step < 6; step++ {
			lr, lf := reused.TrainStep(), fresh.TrainStep()
			if lr != lf {
				t.Fatalf("%s/ada=%v step %d: reused loss %v != fresh loss %v",
					cfg.Model, cfg.AdaNeighbor, step, lr, lf)
			}
		}
		if mr, mf := reused.EvalMRR(SplitVal), fresh.EvalMRR(SplitVal); mr != mf {
			t.Fatalf("%s: reused MRR %v != fresh MRR %v", cfg.Model, mr, mf)
		}
		pr, pf := reused.Model.Params(), fresh.Model.Params()
		for i := range pr {
			for j, v := range pr[i].Val.Data {
				if pf[i].Val.Data[j] != v {
					t.Fatalf("%s: param %d elem %d diverged: reused %v fresh %v",
						cfg.Model, i, j, v, pf[i].Val.Data[j])
				}
			}
		}
	}
}

// TestPipelinedGraphReuseMatchesFresh runs the same equivalence through the
// asynchronous prefetch loop (finishBatch on the consumer, adaptive hops on
// the dedicated finder) — graph reuse must stay invisible there too.
func TestPipelinedGraphReuseMatchesFresh(t *testing.T) {
	cfg := Config{
		Model: ModelTGAT, Finder: FinderGPU, AdaNeighbor: true,
		Decoder: adaptive.DecoderGATv2, Hidden: 12, TimeDim: 6,
		BatchSize: 32, MaxEvalEdges: 8, Seed: 5,
	}
	ds := datasets.Wikipedia(0.08, 4)
	reused, err := New(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := New(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	fresh.freshGraphs = true
	const steps = 6
	pr := reused.NewPipeline(steps)
	defer pr.Close()
	pf := fresh.NewPipeline(steps)
	defer pf.Close()
	for s := 0; s < steps; s++ {
		lr, okr := pr.Step()
		lf, okf := pf.Step()
		if !okr || !okf {
			t.Fatalf("pipeline exhausted at step %d", s)
		}
		if lr != lf {
			t.Fatalf("step %d: reused loss %v != fresh loss %v", s, lr, lf)
		}
	}
}
