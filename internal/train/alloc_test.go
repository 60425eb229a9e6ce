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
// The finders and the kernels run on the caller's goroutine, so the counts
// do not depend on GOMAXPROCS; testing.AllocsPerRun runs the measured calls
// at GOMAXPROCS 1 itself.

// TestStepAllocBudget: a full TASER training step (build + adaptive selection
// + forward/backward + both optimizer steps).
func TestStepAllocBudget(t *testing.T) {
	const stepAllocBudget = 5
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

// TestEvalMRRAllocBudget: a warm EvalMRR on the taser-tgat-gatv2
// trajectory-pin fixture — 10 validation edges ranked against 49 negatives,
// one build of 510 roots drawn and embedded in windows of 64. The count is
// per call, not per window.
func TestEvalMRRAllocBudget(t *testing.T) {
	const evalAllocBudget = 14
	cfg := allocBudgetConfig()
	cfg.Seed = 11
	tr, err := New(cfg, datasets.Wikipedia(0.08, 4))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		tr.TrainStep()
	}
	tr.EvalMRR(SplitVal) // warm the evaluation's shapes in the pool and arenas
	allocs := testing.AllocsPerRun(5, func() { tr.EvalMRR(SplitVal) })
	t.Logf("allocs/EvalMRR = %.1f (budget %d)", allocs, evalAllocBudget)
	if allocs > evalAllocBudget {
		t.Fatalf("a warm EvalMRR allocates %.1f times, budget %d", allocs, evalAllocBudget)
	}
}

// TestPipelinedStepAllocBudget: a base-GraphMixer step through the pipelined
// loop — the train-base-mixer shape, where the producer completes the whole
// static build and the consumer only runs the link-prediction step.
func TestPipelinedStepAllocBudget(t *testing.T) {
	const stepAllocBudget = 5.25
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
	warmPipelined(t, tr, steps)
	allocs := testing.AllocsPerRun(5, func() { tr.trainPipelined(steps) }) / steps
	t.Logf("allocs/pipelined-step = %.2f (budget %v)", allocs, stepAllocBudget)
	if allocs > stepAllocBudget {
		t.Fatalf("a pipelined step allocates %.2f times, budget %v", allocs, stepAllocBudget)
	}
}

// warmPipelined warms the arena, the pools and the tape for pipelined laps
// of the given length: it runs laps in which the producer is as far ahead
// as it can ever get until the build pool stops growing. How far ahead the
// producer gets in a lap that merely runs the loop depends on the schedule
// (a loaded host preempts the consumer mid-step), so such a warm-up can
// leave the pool short of a peak a measured lap then reaches, allocating
// inside the measurement.
func warmPipelined(t *testing.T, tr *Trainer, steps int) {
	t.Helper()
	prev := -1
	for lap := 0; lap < 10; lap++ {
		atFurthestLead(tr, steps)
		if n := pooled(&tr.pool.blocks); n != prev {
			prev = n
			continue
		}
		t.Logf("build pool steady at %d blocks after %d warm laps", prev, lap+1)
		return
	}
	t.Fatalf("the build pool still grows after 10 warm laps (%d blocks)", prev)
}

// atFurthestLead consumes steps batches through a pipeline whose producer
// holds its furthest lead whenever the consumer trains: before each batch
// is consumed the producer refills the buffer and prepares one more, so the
// consumer's batch, prefetchDepth buffered ones and the producer's are all
// in flight at once.
func atFurthestLead(tr *Trainer, steps int) {
	p := tr.NewPipeline(steps)
	defer p.Close()
	for i := 0; i < steps; i++ {
		pb, ok := <-p.out
		if !ok {
			return
		}
		for len(p.out) < min(cap(p.out), steps-i-1) {
			runtime.Gosched()
		}
		for j := 0; j < 10; j++ { // the producer prepares one more, then blocks on the send
			runtime.Gosched()
		}
		tr.consume(pb)
	}
}

// pooled counts the buffers a free list holds; with no batch in flight
// that is every buffer of its family the pool has built.
func pooled[T any](l *freeList[T]) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.free)
}

// TestTrainStepGraphReuseMatchesFresh pins the §5 equivalence contract at the
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
