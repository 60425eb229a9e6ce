package train

import (
	"math"
	"testing"

	"taser/internal/adaptive"
	"taser/internal/autograd"
	"taser/internal/sampler"
)

// TestNoTemporalLeakage is the most important correctness property of the
// whole pipeline: no neighbor at any hop may originate from an interaction
// at or after its target's timestamp, for any variant.
func TestNoTemporalLeakage(t *testing.T) {
	ds := tinyDS(20)
	for _, adaptiveOn := range []bool{false, true} {
		cfg := tinyCfg()
		cfg.AdaNeighbor = adaptiveOn
		cfg.Decoder = adaptive.DecoderGATv2
		tr, err := New(cfg, ds)
		if err != nil {
			t.Fatal(err)
		}
		edges := tr.nextBatchEdges()
		roots := tr.rootsForEdges(edges)
		built := tr.buildMiniBatch(roots)

		// Walk layers outermost→innermost reconstructing target times.
		targets := roots
		for l := len(built.mb.Layers) - 1; l >= 0; l-- {
			block := built.mb.Layers[l]
			if block.NumTargets != len(targets) {
				t.Fatalf("layer %d target count %d want %d", l, block.NumTargets, len(targets))
			}
			for i := range targets {
				for j := 0; j < block.Budget; j++ {
					s := i*block.Budget + j
					if block.NbrNodes[s] < 0 {
						continue
					}
					dt := block.DeltaT.Data[s]
					if dt <= 0 {
						t.Fatalf("adaptive=%v layer %d: Δt=%v (future or simultaneous neighbor)",
							adaptiveOn, l, dt)
					}
				}
			}
			targets = appendExtendedTargets(nil, targets, block)
		}
	}
}

// TestMiniBatchLayoutInvariant checks the [targets | neighbors] row
// alignment the models rely on, through the real pipeline.
func TestMiniBatchLayoutInvariant(t *testing.T) {
	ds := tinyDS(21)
	cfg := tinyCfg()
	tr, _ := New(cfg, ds)
	edges := tr.nextBatchEdges()
	roots := tr.rootsForEdges(edges)
	built := tr.buildMiniBatch(roots)
	if err := built.mb.Validate(); err != nil {
		t.Fatal(err)
	}
	if built.mb.Roots() != len(roots) {
		t.Fatal("root count")
	}
	// Leaf features must have node-feature width.
	if built.mb.LeafFeat.Cols != ds.Spec.NodeDim {
		t.Fatal("leaf width")
	}
}

// TestSampleLossEndToEnd drives the full co-training path for both
// backbones: model forward, model backward, sample loss construction, and a
// sampler optimizer step that actually changes the sampler's parameters.
func TestSampleLossEndToEnd(t *testing.T) {
	ds := tinyDS(22)
	for _, model := range []ModelKind{ModelTGAT, ModelGraphMixer} {
		cfg := tinyCfg()
		cfg.Model = model
		cfg.AdaNeighbor = true
		cfg.Decoder = adaptive.DecoderLinear
		tr, err := New(cfg, ds)
		if err != nil {
			t.Fatal(err)
		}
		beforeParams := snapshotParams(tr.Sampler.Params())
		tr.TrainStep()
		changed := false
		for i, p := range tr.Sampler.Params() {
			for j, v := range p.Val.Data {
				if v != beforeParams[i][j] {
					changed = true
				}
			}
		}
		if !changed {
			t.Fatalf("%s: sample loss never moved the sampler parameters", model)
		}
	}
}

func snapshotParams(params []*autograd.Var) [][]float64 {
	out := make([][]float64, len(params))
	for i, p := range params {
		out[i] = append([]float64(nil), p.Val.Data...)
	}
	return out
}

// TestTrainStepDeterministic: identical seeds must produce identical losses
// across fresh trainers (the whole pipeline is driven by mathx.RNG).
func TestTrainStepDeterministic(t *testing.T) {
	ds := tinyDS(23)
	mk := func() float64 {
		cfg := tinyCfg()
		cfg.AdaBatch, cfg.AdaNeighbor = true, true
		cfg.Decoder = adaptive.DecoderGATv2
		tr, err := New(cfg, ds)
		if err != nil {
			t.Fatal(err)
		}
		return tr.TrainStep()
	}
	if a, b := mk(), mk(); a != b {
		t.Fatalf("same seed, different losses: %v vs %v", a, b)
	}
}

// TestBuildMiniBatchExported covers the inference entry point examples use.
func TestBuildMiniBatchExported(t *testing.T) {
	ds := tinyDS(24)
	cfg := tinyCfg()
	tr, _ := New(cfg, ds)
	roots := []sampler.Target{{Node: 1, Time: 500}, {Node: 50, Time: 600}}
	mb := tr.BuildMiniBatch(roots)
	if err := mb.Validate(); err != nil {
		t.Fatal(err)
	}
	g := autograd.New()
	emb, _ := tr.Model.Forward(g, mb)
	if emb.Rows() != 2 {
		t.Fatal("embedding rows")
	}
	for _, v := range emb.Val.Data {
		if math.IsNaN(v) {
			t.Fatal("NaN embedding")
		}
	}
}

// TestLRUCachePolicyConfig covers the ablation knob.
func TestLRUCachePolicyConfig(t *testing.T) {
	ds := tinyDS(26)
	cfg := tinyCfg()
	cfg.CacheRatio = 0.2
	cfg.CachePolicy = "lru"
	tr, err := New(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	tr.TrainStep()
	if _, err := New(Config{CachePolicy: "bogus", CacheRatio: 0.1}, ds); err == nil {
		t.Fatal("bogus cache policy must error")
	}
}

// TestFinderPolicyOverride covers the static-policy knob, including the
// inverse-timespan heuristic.
func TestFinderPolicyOverride(t *testing.T) {
	ds := tinyDS(28)
	for _, policy := range []string{"uniform", "recent", "invts"} {
		cfg := tinyCfg()
		cfg.FinderPolicy = policy
		tr, err := New(cfg, ds)
		if err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		if loss := tr.TrainStep(); math.IsNaN(loss) {
			t.Fatalf("%s: NaN loss", policy)
		}
	}
	if _, err := New(Config{FinderPolicy: "bogus"}, ds); err == nil {
		t.Fatal("bogus policy must error")
	}
}

// TestEncoderDisableFlags covers the encoder-ablation knobs end to end.
func TestEncoderDisableFlags(t *testing.T) {
	ds := tinyDS(27)
	cfg := tinyCfg()
	cfg.AdaNeighbor = true
	cfg.DisableTE, cfg.DisableFE = true, true
	tr, err := New(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	if loss := tr.TrainStep(); math.IsNaN(loss) {
		t.Fatal("ablated encoder step")
	}
}
