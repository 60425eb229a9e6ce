package train

import (
	"fmt"
	"math"
	"testing"

	"taser/internal/datasets"
	"taser/internal/models"
	"taser/internal/sampler"
	"taser/internal/tensor"
	"taser/internal/tgraph"
)

// inferRoots picks a handful of root targets from late events (so their
// temporal neighborhoods are non-trivial).
func inferRoots(ds *datasets.Dataset, n int) []sampler.Target {
	roots := make([]sampler.Target, 0, n)
	events := ds.Graph.Events
	for i := 0; i < n; i++ {
		ev := events[len(events)-1-i*7]
		roots = append(roots, sampler.Target{Node: ev.Src, Time: ev.Time})
	}
	return roots
}

// requireBlocksEqual asserts bitwise equality of two layer blocks.
func requireBlocksEqual(t *testing.T, got, want *models.LayerBlock, layer int) {
	t.Helper()
	if got.NumTargets != want.NumTargets || got.Budget != want.Budget {
		t.Fatalf("layer %d shape (%d,%d) vs (%d,%d)", layer,
			got.NumTargets, got.Budget, want.NumTargets, want.Budget)
	}
	for s := range want.NbrNodes {
		if got.NbrNodes[s] != want.NbrNodes[s] {
			t.Fatalf("layer %d NbrNodes[%d]: %d vs %d", layer, s, got.NbrNodes[s], want.NbrNodes[s])
		}
	}
	if len(got.Valid) != len(want.Valid) {
		t.Fatalf("layer %d indexes %d valid slots vs %d", layer, len(got.Valid), len(want.Valid))
	}
	for i := range want.Valid {
		if got.Valid[i] != want.Valid[i] {
			t.Fatalf("layer %d Valid[%d]: %d vs %d", layer, i, got.Valid[i], want.Valid[i])
		}
	}
	for name, pair := range map[string][2]*tensor.Matrix{
		"DeltaT":   {got.DeltaT, want.DeltaT},
		"EdgeFeat": {got.EdgeFeat, want.EdgeFeat},
	} {
		requireSameBits(t, fmt.Sprintf("layer %d %s", layer, name), pair[0], pair[1])
	}
}

// requireSameBits asserts that two matrices have one shape and the same
// bit pattern in every element (NaN and −0 included).
func requireSameBits(t *testing.T, name string, got, want *tensor.Matrix) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s is %dx%d, want %dx%d", name, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i, w := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(w) {
			t.Fatalf("%s[%d]: %v vs %v", name, i, got.Data[i], w)
		}
	}
}

func requireMiniBatchesEqual(t *testing.T, got, want *models.MiniBatch) {
	t.Helper()
	if len(got.Layers) != len(want.Layers) {
		t.Fatalf("layer count %d vs %d", len(got.Layers), len(want.Layers))
	}
	for l := range want.Layers {
		requireBlocksEqual(t, got.Layers[l], want.Layers[l], l)
	}
	requireSameBits(t, "LeafFeat", got.LeafFeat, want.LeafFeat)
}

// TestInferenceBuilderMatchesTrainerBuild is the reuse contract: a detached
// InferenceBuilder over the dataset's own T-CSR builds bitwise-identical
// minibatches to the trainer's exported build path under the deterministic
// most-recent policy, for both backbones' hop depths — including after the
// buffers have been through the pool.
func TestInferenceBuilderMatchesTrainerBuild(t *testing.T) {
	for _, model := range []ModelKind{ModelTGAT, ModelGraphMixer} {
		ds := datasets.GDELT(0.03, 3) // node AND edge features
		cfg := Config{
			Model: model, Finder: FinderGPU, FinderPolicy: "recent",
			Hidden: 12, TimeDim: 6, BatchSize: 32, Seed: 9,
		}
		tr, err := New(cfg, ds)
		if err != nil {
			t.Fatal(err)
		}
		ib, err := NewInferenceBuilder(InferConfig{
			TCSR: ds.TCSR, NodeFeat: ds.NodeFeat, EdgeFeat: ds.EdgeFeat,
			Layers: tr.Model.NumLayers(), Budget: tr.Cfg.N,
			Policy: sampler.MostRecent, Seed: 17,
		})
		if err != nil {
			t.Fatal(err)
		}
		roots := inferRoots(ds, 6)
		want := tr.BuildMiniBatch(append([]sampler.Target(nil), roots...))
		got := ib.Build(roots)
		requireMiniBatchesEqual(t, got, want)

		// Recycle and rebuild: pooled buffers must be indistinguishable.
		ib.Release(got)
		got2 := ib.Build(roots)
		requireMiniBatchesEqual(t, got2, want)
		ib.Release(got2)
	}
}

// TestInferenceBuilderSwapGraph verifies that retargeting at a grown snapshot
// changes what is sampled (new events become visible) while keeping the pool,
// and that a width-mismatched edge matrix is rejected.
func TestInferenceBuilderSwapGraph(t *testing.T) {
	ds := datasets.Wikipedia(0.03, 5)
	half := len(ds.Graph.Events) / 2

	gb := tgraph.NewBuilder(ds.Spec.NumNodes)
	for _, ev := range ds.Graph.Events[:half] {
		if err := gb.Add(ev.Src, ev.Dst, ev.Time); err != nil {
			t.Fatal(err)
		}
	}
	_, tcsrHalf := gb.Snapshot()

	ib, err := NewInferenceBuilder(InferConfig{
		TCSR: tcsrHalf, NodeFeat: ds.NodeFeat, EdgeFeat: ds.EdgeFeat,
		Layers: 1, Budget: 5, Policy: sampler.MostRecent, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}

	// A root whose neighborhood only exists in the second half.
	var late tgraph.Event
	found := false
	for _, ev := range ds.Graph.Events[half:] {
		deg := 0
		for _, e2 := range ds.Graph.Events[:half] {
			if e2.Src == ev.Src || e2.Dst == ev.Src {
				deg++
			}
		}
		if deg == 0 {
			late, found = ev, true
			break
		}
	}
	if !found {
		t.Skip("no node active only in the second half")
	}
	roots := []sampler.Target{{Node: late.Src, Time: late.Time + 1}}
	mb := ib.Build(roots)
	if len(mb.Layers[0].Valid) != 0 {
		t.Fatal("node must have an empty neighborhood in the half snapshot")
	}
	ib.Release(mb)

	for _, ev := range ds.Graph.Events[half:] {
		if err := gb.Add(ev.Src, ev.Dst, ev.Time); err != nil {
			t.Fatal(err)
		}
	}
	_, tcsrFull := gb.Snapshot()
	if err := ib.SwapGraph(tcsrFull, ds.EdgeFeat); err != nil {
		t.Fatal(err)
	}
	mb = ib.Build(roots)
	if len(mb.Layers[0].Valid) == 0 || mb.Layers[0].Valid[0] != 0 {
		t.Fatal("after SwapGraph the new events must be sampleable")
	}
	ib.Release(mb)

	if err := ib.SwapGraph(tcsrFull, ds.NodeFeat); err == nil && ds.NodeFeat.Cols != ds.EdgeFeat.Cols {
		t.Fatal("width-mismatched edge features must be rejected")
	}
}

// BenchmarkInferBuild measures the pooled serving-side build path (compare
// with the BenchmarkBuild* trainer-side numbers in build_bench_test.go).
func BenchmarkInferBuild(b *testing.B) {
	ds := datasets.Wikipedia(0.1, 3)
	ib, err := NewInferenceBuilder(InferConfig{
		TCSR: ds.TCSR, NodeFeat: ds.NodeFeat, EdgeFeat: ds.EdgeFeat,
		Layers: 2, Budget: 10, Policy: sampler.MostRecent, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	roots := inferRoots(ds, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ib.Release(ib.Build(roots))
	}
}
