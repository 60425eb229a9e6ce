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

// heldEverySecond is a Memo that holds every second target it is asked
// about, with a row naming the target, and records what it was asked.
type heldEverySecond struct {
	asked []sampler.Target
	held  []int32
}

func (m *heldEverySecond) Lookup(i int, tg sampler.Target) []float64 {
	m.asked = append(m.asked, tg)
	if len(m.asked)%2 == 1 {
		return nil
	}
	m.held = append(m.held, int32(i))
	return []float64{float64(i), -1, 0.5}
}

// TestInferenceBuilderMemoSkipsHeldSubtrees: with a Memo, Build asks it about
// every non-padding target of the hop under the top, in order and with the
// times the memo-free build gives them; a held target is recorded on that
// hop's block with its row and has no neighbor there, and every other
// target, the top hop and the leaf rows of the unheld are built as without
// a Memo.
func TestInferenceBuilderMemoSkipsHeldSubtrees(t *testing.T) {
	ds := datasets.GDELT(0.03, 3)
	cfg := InferConfig{
		TCSR: ds.TCSR, NodeFeat: ds.NodeFeat, EdgeFeat: ds.EdgeFeat,
		Layers: 2, Budget: 10, Policy: sampler.MostRecent, Seed: 17,
	}
	plainB, err := NewInferenceBuilder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	memoB, err := NewInferenceBuilder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	memo := &heldEverySecond{}
	memoB.Memo = memo
	roots := inferRoots(ds, 6)
	plain, got := plainB.Build(roots), memoB.Build(roots)

	top, inner := plain.Layers[1], plain.Layers[0]
	requireBlocksEqual(t, got.Layers[1], top, 1)
	n := inner.Budget
	var want []sampler.Target // the inner hop's non-padding targets
	for i := 0; i < inner.NumTargets; i++ {
		if i < len(roots) {
			want = append(want, roots[i])
		} else if s := i - len(roots); top.NbrNodes[s] >= 0 {
			want = append(want, sampler.Target{Node: top.NbrNodes[s], Time: roots[s/n].Time - top.DeltaT.Data[s]})
		}
	}
	if fmt.Sprint(memo.asked) != fmt.Sprint(want) {
		t.Fatalf("asked about %v, want %v", memo.asked, want)
	}
	block := got.Layers[0]
	if fmt.Sprint(block.Known) != fmt.Sprint(memo.held) || len(block.Known) == 0 {
		t.Fatalf("block holds %v, the memo held %v", block.Known, memo.held)
	}
	held := map[int]bool{}
	for j, i := range block.Known {
		held[int(i)] = true
		if row := block.KnownRows.Row(j); row[0] != float64(i) || row[1] != -1 || row[2] != 0.5 {
			t.Fatalf("held target %d has row %v", i, row)
		}
	}
	for i := 0; i < inner.NumTargets; i++ {
		for s := i * n; s < (i+1)*n; s++ {
			if held[i] {
				if block.NbrNodes[s] != -1 {
					t.Fatalf("held target %d has neighbor %d in slot %d", i, block.NbrNodes[s], s)
				}
				continue
			}
			if block.NbrNodes[s] != inner.NbrNodes[s] ||
				math.Float64bits(block.DeltaT.Data[s]) != math.Float64bits(inner.DeltaT.Data[s]) {
				t.Fatalf("unheld target %d, slot %d: built differently", i, s)
			}
			requireSameBits(t, fmt.Sprintf("edge row %d", s),
				tensor.FromSlice(1, block.EdgeFeat.Cols, block.EdgeFeat.Row(s)),
				tensor.FromSlice(1, inner.EdgeFeat.Cols, inner.EdgeFeat.Row(s)))
			if inner.NbrNodes[s] >= 0 {
				leaf := inner.NumTargets + s
				requireSameBits(t, fmt.Sprintf("leaf row %d", leaf),
					tensor.FromSlice(1, got.LeafFeat.Cols, got.LeafFeat.Row(leaf)),
					tensor.FromSlice(1, plain.LeafFeat.Cols, plain.LeafFeat.Row(leaf)))
			}
		}
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

// TestPaddedSlotsSampleNothingOnStreamsBeforeTimeZero: a padded slot's
// inner target is sampler.Padding, whose neighborhood is empty even when node
// 0 has events before t=0. The sentinel used to be (node 0, t=0), and each of
// the three padded slots below sampled node 0's two events at t=−5 and −3.
func TestPaddedSlotsSampleNothingOnStreamsBeforeTimeZero(t *testing.T) {
	g, err := tgraph.NewGraph(4, []tgraph.Event{{Src: 0, Dst: 1, Time: -5}, {Src: 0, Dst: 2, Time: -3}, {Src: 3, Dst: 1, Time: 2}})
	if err != nil {
		t.Fatal(err)
	}
	ib, err := NewInferenceBuilder(InferConfig{
		TCSR: tgraph.BuildTCSR(g), Layers: 2, Budget: 4, Policy: sampler.MostRecent,
	})
	if err != nil {
		t.Fatal(err)
	}
	mb := ib.Build([]sampler.Target{{Node: 3, Time: 10}})
	defer ib.Release(mb)
	// Outer: root 3 has one neighbor (1 at t=2). Inner targets: the root, that
	// neighbor (whose one earlier neighbor is 0 at t=−5), then three paddings.
	for l, want := range [][]int32{{0, 4}, {0}} {
		if got := mb.Layers[l].Valid; fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("layer %d Valid = %v, want %v", l, got, want)
		}
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

// TestInferencePoolHoldsOneFullBuild: a serving flush builds exactly its
// missed roots, so successive flushes build every count from 1 to a full
// micro-batch. After them the pool holds no more blocks and leaf matrices
// than one full build uses: no count leaves buffers of its own behind.
func TestInferencePoolHoldsOneFullBuild(t *testing.T) {
	const layers, maxBatch = 2, 32 // serve.Config's default MaxBatch
	ds := datasets.GDELT(0.03, 3)
	ib, err := NewInferenceBuilder(InferConfig{
		TCSR: ds.TCSR, NodeFeat: ds.NodeFeat, EdgeFeat: ds.EdgeFeat,
		Layers: layers, Budget: 10, Policy: sampler.MostRecent, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	roots := inferRoots(ds, maxBatch)
	for n := 1; n <= maxBatch; n++ {
		ib.Release(ib.Build(roots[:n]))
	}
	if blocks, mats := pooled(&ib.core.pool.blocks), pooled(&ib.core.pool.mats); blocks > layers || mats > 1 {
		t.Fatalf("after builds of 1..%d roots the pool holds %d blocks and %d leaf matrices; one build uses %d and 1",
			maxBatch, blocks, mats, layers)
	}
}
