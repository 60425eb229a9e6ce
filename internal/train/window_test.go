package train

import (
	"math"
	"reflect"
	"testing"

	"taser/internal/adaptive"
	"taser/internal/datasets"
	"taser/internal/sampler"
	"taser/internal/tensor"
)

// windowConfigs are a TASER-TGAT and a TASER-GraphMixer trainer: adaptive
// neighbor sampling on, so both graphs (model and sampler) run windows.
func windowConfigs() []Config {
	return []Config{
		{Model: ModelTGAT, Finder: FinderGPU, AdaBatch: true, AdaNeighbor: true,
			Decoder: adaptive.DecoderGATv2, Hidden: 12, TimeDim: 6, Seed: 3},
		{Model: ModelGraphMixer, Finder: FinderGPU, AdaBatch: true, AdaNeighbor: true,
			Decoder: adaptive.DecoderLinear, Hidden: 12, TimeDim: 6, Seed: 4},
	}
}

// TestForwardOnlyWindowsMatchOneWindow: a forward-only pass runs in windows
// of BatchSize roots (windowRoots), and BatchSize changes nothing else before
// training starts. So an untrained trainer's BuildMiniBatch over 82 roots
// and EvalMRR over 77 per chunk (7 sources, 7 positives, 63 negatives) at
// BatchSize 4, in windows of 4 roots with a short last one, are bitwise
// those at BatchSize 4096 (one window): the same blocks, leaf features and
// MRR.
func TestForwardOnlyWindowsMatchOneWindow(t *testing.T) {
	ds := datasets.Wikipedia(0.08, 4)
	var roots []sampler.Target
	for _, ev := range ds.Graph.Events[ds.TrainEnd : ds.TrainEnd+41] {
		roots = append(roots, sampler.Target{Node: ev.Src, Time: ev.Time}, sampler.Target{Node: ev.Dst, Time: ev.Time})
	}
	for _, cfg := range windowConfigs() {
		cfg.EvalNegatives, cfg.MaxEvalEdges = 9, 7
		var trs [2]*Trainer
		for i, bs := range []int{4, 4096} {
			cfg.BatchSize = bs
			tr, err := New(cfg, ds)
			if err != nil {
				t.Fatal(err)
			}
			trs[i] = tr
		}
		requireMiniBatchesEqual(t, trs[0].BuildMiniBatch(roots), trs[1].BuildMiniBatch(roots))
		if a, b := trs[0].EvalMRR(SplitVal), trs[1].EvalMRR(SplitVal); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("%s: windowed MRR %v, one window's %v", cfg.Model, a, b)
		}
	}
}

// TestEvalMRRStaysInTrainingMemory: evaluation at the paper's 49 negatives
// ranks 4 edges over 204 roots per chunk, four times a step's 48; run in
// windows of BatchSize (16) roots, on both splits, it leaves both graphs'
// arenas at the capacity training left them.
func TestEvalMRRStaysInTrainingMemory(t *testing.T) {
	ds := datasets.Wikipedia(0.1, 3)
	for _, cfg := range windowConfigs() {
		cfg.BatchSize, cfg.EvalNegatives, cfg.MaxEvalEdges = 16, 49, 4
		tr, err := New(cfg, ds)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			tr.TrainStep()
		}
		model, samp := arenaCapacity(tr.gM.g.Arena()), arenaCapacity(tr.gS.g.Arena())
		tr.EvalMRR(SplitVal)
		tr.EvalMRR(SplitTest)
		if m, s := arenaCapacity(tr.gM.g.Arena()), arenaCapacity(tr.gS.g.Arena()); m != model || s != samp {
			t.Fatalf("%s: evaluation grew the arenas from %d/%d to %d/%d elements (model/sampler)",
				cfg.Model, model, samp, m, s)
		}
	}
}

// arenaCapacity is the number of elements an arena holds over its chunks.
// Nothing in the program needs that count, so tensor.Arena does not export
// it, and the test reads the field.
func arenaCapacity(a *tensor.Arena) int64 {
	return reflect.ValueOf(a).Elem().FieldByName("capacity").Int()
}
