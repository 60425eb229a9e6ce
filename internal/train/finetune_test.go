package train

import (
	"testing"

	"taser/internal/datasets"
	"taser/internal/sampler"
	"taser/internal/tgraph"
)

// TestFinetuneStepMatchesOfflineTrainStep pins the continual-learning
// contract: online FineTuner.Steps — pooled InferenceBuilder build,
// reusable arena graph, Adam on cloned parameters — are bitwise-equal to the
// offline Trainer's TrainSteps on the same events, graph, starting weights
// and negative draws, for both backbones. This is what makes the online
// fine-tuner a faithful extension of Algorithm 1's model update to the
// serving stream rather than a lookalike.
func TestFinetuneStepMatchesOfflineTrainStep(t *testing.T) {
	for _, model := range []ModelKind{ModelTGAT, ModelGraphMixer} {
		ds := datasets.Wikipedia(0.08, 4)
		cfg := Config{
			Model: model, Finder: FinderGPU, FinderPolicy: "recent",
			Hidden: 12, TimeDim: 6, BatchSize: 40, Seed: 11,
		}
		offline, err := New(cfg, ds)
		if err != nil {
			t.Fatal(err)
		}
		// An identical twin predicts the negative destinations the offline
		// step will draw (both trainers consume the same seeded RNG stream).
		oracle, err := New(cfg, ds)
		if err != nil {
			t.Fatal(err)
		}
		b := offline.Cfg.BatchSize
		const steps = 3
		negs := make([]int32, steps*b)
		for i := range negs {
			negs[i] = oracle.negativeDst()
		}

		// The fine-tuner clones the offline trainer's pre-step weights and
		// binds the same adjacency and feature stores.
		ft, err := NewFineTuner(FineTuneConfig{
			Model: offline.Model, Pred: offline.Pred,
			Infer: InferConfig{
				TCSR: ds.TCSR, NodeFeat: ds.NodeFeat, EdgeFeat: ds.EdgeFeat,
				Budget: offline.Cfg.N, Policy: sampler.MostRecent, Seed: 1,
			},
			LR:       offline.Cfg.LR,
			NumNodes: ds.Spec.NumNodes, NumSrc: ds.Spec.NumSrc, Seed: 2,
		})
		if err != nil {
			t.Fatal(err)
		}

		// Three consecutive chronological batches, so reused step scratch,
		// pooled buffers and Adam's moments are compared, not only a cold step.
		for s := 0; s < steps; s++ {
			events := make([]tgraph.Event, b)
			copy(events, ds.Graph.Events[s*b:(s+1)*b])
			lossOff := offline.TrainStep()
			lossOn := ft.Step(events, negs[s*b:(s+1)*b])
			if lossOff != lossOn {
				t.Fatalf("%s step %d: online loss %v != offline loss %v", model, s, lossOn, lossOff)
			}
		}

		offP := append(offline.Model.Params(), offline.Pred.Params()...)
		onP := append(ft.Model().Params(), ft.Pred().Params()...)
		if len(offP) != len(onP) {
			t.Fatalf("%s: param count %d != %d", model, len(onP), len(offP))
		}
		for i := range offP {
			for j, v := range offP[i].Val.Data {
				if onP[i].Val.Data[j] != v {
					t.Fatalf("%s: param %d elem %d diverged: online %v offline %v",
						model, i, j, onP[i].Val.Data[j], v)
				}
			}
		}
	}
}

// TestFinetuneStepSwapGraphKeepsStepping checks the retarget path the online
// loop uses: steps keep working (finite losses, no panics) after swapping to
// an incrementally published snapshot, with the pool and arena surviving.
func TestFinetuneStepSwapGraphKeepsStepping(t *testing.T) {
	ds := datasets.Wikipedia(0.08, 4)
	tr, err := New(Config{
		Model: ModelTGAT, Finder: FinderGPU, FinderPolicy: "recent",
		Hidden: 10, TimeDim: 6, Seed: 3,
	}, ds)
	if err != nil {
		t.Fatal(err)
	}
	ft, err := NewFineTuner(FineTuneConfig{
		Model: tr.Model, Pred: tr.Pred,
		Infer: InferConfig{
			TCSR: ds.TCSR, NodeFeat: ds.NodeFeat, EdgeFeat: ds.EdgeFeat,
			Budget: 5, Policy: sampler.MostRecent, Seed: 1,
		},
		NumNodes: ds.Spec.NumNodes, NumSrc: ds.Spec.NumSrc, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	loss := ft.Step(ds.Graph.Events[:32], nil)
	if loss != loss || loss == 0 { // NaN or trivially zero
		t.Fatalf("pre-swap loss %v", loss)
	}
	// Rebuild the same stream through the incremental builder and swap.
	gb := tgraph.NewBuilder(ds.Spec.NumNodes)
	for _, ev := range ds.Graph.Events {
		if err := gb.Add(ev.Src, ev.Dst, ev.Time); err != nil {
			t.Fatal(err)
		}
	}
	_, tcsr := gb.Snapshot()
	if err := ft.SwapGraph(tcsr, ds.EdgeFeat); err != nil {
		t.Fatal(err)
	}
	loss = ft.Step(ds.Graph.Events[32:64], nil)
	if loss != loss || loss == 0 {
		t.Fatalf("post-swap loss %v", loss)
	}
}

// TestFinetuneStepAllocBudget extends the allocation-regression guard (see
// alloc_test.go) to the continual-learning hot path: a warm online fine-tune
// step (pooled build + arena forward–backward + Adam) makes a fixed handful
// of allocations, so a long-running fine-tuner generates O(1) garbage per
// step just like the offline loop.
func TestFinetuneStepAllocBudget(t *testing.T) {
	const stepAllocBudget = 3
	ds := datasets.Wikipedia(0.1, 3)
	tr, err := New(Config{
		Model: ModelTGAT, Finder: FinderGPU, FinderPolicy: "recent",
		Hidden: 16, TimeDim: 8, Seed: 3,
	}, ds)
	if err != nil {
		t.Fatal(err)
	}
	ft, err := NewFineTuner(FineTuneConfig{
		Model: tr.Model, Pred: tr.Pred,
		Infer: InferConfig{
			TCSR: ds.TCSR, NodeFeat: ds.NodeFeat, EdgeFeat: ds.EdgeFeat,
			Budget: 10, Policy: sampler.MostRecent, Seed: 1,
		},
		NumNodes: ds.Spec.NumNodes, NumSrc: ds.Spec.NumSrc, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	events := ds.Graph.Events[:64]
	for i := 0; i < 8; i++ { // warm the pool, tape and arena
		ft.Step(events, nil)
	}
	allocs := testing.AllocsPerRun(20, func() { ft.Step(events, nil) })
	t.Logf("allocs/finetune-step = %.1f (budget %d)", allocs, stepAllocBudget)
	if allocs > stepAllocBudget {
		t.Fatalf("FineTuner.Step allocates %.1f times/step, budget %d", allocs, stepAllocBudget)
	}
}
