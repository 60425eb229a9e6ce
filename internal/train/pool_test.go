package train

import (
	"fmt"
	"testing"

	"taser/internal/adaptive"
	"taser/internal/datasets"
	"taser/internal/sampler"
	"taser/internal/tensor"
)

// TestPooledBuildEqualsFresh: the pool hands layer blocks, candidate sets and
// leaf matrices back without clearing their feature rows — under poison,
// set here, those rows come back NaN — so the build's slice is what writes
// each of them. After it, a reused buffer equals a fresh trainer's byte for
// byte: every feature row, padding's zero rows included, and everything the
// fill writes.
func TestPooledBuildEqualsFresh(t *testing.T) {
	t.Setenv("TASER_ARENA_POISON", "1")
	cfg := tinyCfg()
	cfg.FinderPolicy = "recent" // the same neighborhoods from both trainers
	ds := tinyDS(33)
	reused, err := New(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := New(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	roots := func(from int) []sampler.Target {
		out := make([]sampler.Target, 12)
		for i := range out {
			ev := ds.Graph.Events[from+7*i]
			out[i] = sampler.Target{Node: ev.Dst, Time: ev.Time}
		}
		return out
	}
	earlier, later := roots(100), roots(600)

	first := reused.build(earlier, reused.Finder, &reused.finderMuP, nil)
	reused.release(first)
	got := reused.build(later, reused.Finder, &reused.finderMuP, nil)
	if got.Layers[0] != first.Layers[0] || got.Layers[1] != first.Layers[1] || got.LeafFeat != first.LeafFeat {
		t.Fatal("the pool did not hand the first batch's buffers back")
	}
	requireMiniBatchesEqual(t, got, fresh.build(later, fresh.Finder, &fresh.finderMuP, nil))

	candidates := func(tr *Trainer, roots []sampler.Target) *adaptive.CandidateSet {
		res := tr.pool.getResult()
		defer tr.pool.putResult(res)
		tr.sample(tr.Finder, &tr.finderMuP, roots, tr.Cfg.M, res)
		return tr.buildCandidateSet(roots, res)
	}
	firstSet := candidates(reused, earlier)
	reused.pool.putSet(firstSet)
	gotSet, wantSet := candidates(reused, later), candidates(fresh, later)
	if gotSet != firstSet {
		t.Fatal("the pool did not hand the first candidate set back")
	}
	if fmt.Sprint(gotSet.Nodes, gotSet.DeltaT, gotSet.Valid) != fmt.Sprint(wantSet.Nodes, wantSet.DeltaT, wantSet.Valid) {
		t.Fatalf("candidate ids, Δt or valid slots differ: %v %v %v vs %v %v %v",
			gotSet.Nodes, gotSet.DeltaT, gotSet.Valid, wantSet.Nodes, wantSet.DeltaT, wantSet.Valid)
	}
	for name, pair := range map[string][2]*tensor.Matrix{
		"NodeFeat":   {gotSet.NodeFeat, wantSet.NodeFeat},
		"EdgeFeat":   {gotSet.EdgeFeat, wantSet.EdgeFeat},
		"TargetFeat": {gotSet.TargetFeat, wantSet.TargetFeat},
	} {
		requireSameBits(t, "candidate "+name, pair[0], pair[1])
	}
}

// TestPoolKeepsNoShapes: the pool files buffers by capacity alone, so after
// evaluation chunks of two sizes and the training steps around them no
// family holds more free buffers than after the first chunk. A pool keyed
// by shape kept each chunk size's blocks and sets for the rest of the run.
func TestPoolKeepsNoShapes(t *testing.T) {
	tr, err := New(allocBudgetConfig(), datasets.Wikipedia(0.08, 4))
	if err != nil {
		t.Fatal(err)
	}
	counts := func() [7]int {
		p := tr.pool
		return [7]int{pooled(&p.blocks), pooled(&p.sets), pooled(&p.results), pooled(&p.mats),
			pooled(&p.targets.freeList), pooled(&p.ids.freeList), pooled(&p.ints.freeList)}
	}
	for i := 0; i < 4; i++ {
		tr.TrainStep()
	}
	tr.Cfg.MaxEvalEdges = 30
	tr.EvalMRR(SplitVal)
	want := counts()
	tr.Cfg.MaxEvalEdges = 17
	tr.EvalMRR(SplitVal)
	for i := 0; i < 4; i++ {
		tr.TrainStep()
	}
	if got := counts(); got != want {
		t.Fatalf("free buffers per family (blocks, sets, results, mats, targets, ids, ints): "+
			"%v after a second chunk size and more steps, %v after the first chunk", got, want)
	}
}
