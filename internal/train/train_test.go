package train

import (
	"math"
	"strings"
	"testing"

	"taser/internal/adaptive"
	"taser/internal/datasets"
)

// tinyDS generates a fast dataset for trainer tests.
func tinyDS(seed uint64) *datasets.Dataset {
	return datasets.Generate(datasets.Spec{
		Name: "tiny", NumNodes: 60, NumSrc: 48, NumEvents: 900,
		NodeDim: 4, EdgeDim: 6,
		NoiseRate: 0.2, DriftRate: 1, RepeatRate: 0.5, Skew: 1.1,
		Seed: seed,
	})
}

func tinyCfg() Config {
	return Config{
		Model: ModelTGAT, Hidden: 8, TimeDim: 6, N: 3, M: 6,
		BatchSize: 32, Epochs: 1, EvalNegatives: 5, MaxEvalEdges: 40, Seed: 3,
	}
}

func TestConfigNormalizeDefaults(t *testing.T) {
	c := Config{}.Normalize()
	if c.Model != ModelTGAT || c.Finder != FinderGPU || c.N != 10 || c.M != 25 ||
		c.EvalNegatives != 49 {
		t.Fatalf("defaults: %+v", c)
	}
}

// TestConfigValidateRejects: every value Validate names is refused, by
// Validate with the field in the message and by New before it builds anything
// (negative batch sizes used to "train" a negative number of steps, a
// negative N or a CacheRatio above 1 to panic deep in the sampler or cache).
func TestConfigValidateRejects(t *testing.T) {
	ds := tinyDS(1)
	for field, cfg := range map[string]Config{
		"Hidden": {Hidden: -1}, "TimeDim": {TimeDim: -1}, "N": {N: -1}, "M": {M: -1},
		"BatchSize": {BatchSize: -5}, "Epochs": {Epochs: -1},
		"EvalNegatives": {EvalNegatives: -1}, "MaxEvalEdges": {MaxEvalEdges: -1},
		"LR": {LR: -1e-3}, "LR (NaN)": {LR: math.NaN()},
		"CacheRatio": {CacheRatio: 1.5}, "CacheRatio (negative)": {CacheRatio: -0.1},
		"Model": {Model: "foo"}, "Finder": {Finder: "foo"},
		"CachePolicy": {CachePolicy: "foo"}, "FinderPolicy": {FinderPolicy: "foo"},
		"Decoder": {AdaNeighbor: true, Decoder: adaptive.Decoder(9)},
	} {
		name, _, _ := strings.Cut(field, " ")
		if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "Config."+name+" ") {
			t.Errorf("%s: Validate() = %v, want an error naming Config.%s", field, err, name)
		}
		if _, err := New(cfg, ds); err == nil {
			t.Errorf("%s: New accepted a config Validate rejects", field)
		}
	}
	// Zero selects the default; the ratio's bounds themselves are valid.
	for _, cfg := range []Config{{}, {CacheRatio: 1}, tinyCfg(),
		{Model: ModelGraphMixer, Finder: FinderTGL, CachePolicy: "lru", FinderPolicy: "invts"}} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", cfg, err)
		}
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	ds := tinyDS(1)
	if _, err := New(Config{Model: "nope"}, ds); err == nil {
		t.Fatal("unknown model must error")
	}
	if _, err := New(Config{Finder: "nope"}, ds); err == nil {
		t.Fatal("unknown finder must error")
	}
	// TGL finder cannot serve adaptive mini-batch selection (§III-C).
	if _, err := New(Config{Finder: FinderTGL, AdaBatch: true}, ds); err == nil {
		t.Fatal("TGL + adaptive batching must error")
	}
}

func TestTrainStepReducesNothingButRuns(t *testing.T) {
	ds := tinyDS(2)
	for _, model := range []ModelKind{ModelTGAT, ModelGraphMixer} {
		cfg := tinyCfg()
		cfg.Model = model
		tr, err := New(cfg, ds)
		if err != nil {
			t.Fatal(err)
		}
		loss := tr.TrainStep()
		if math.IsNaN(loss) || loss <= 0 {
			t.Fatalf("%s: implausible loss %v", model, loss)
		}
		// BCE with random init should start near ln 2.
		if loss > 1.5 {
			t.Fatalf("%s: loss %v far above ln2", model, loss)
		}
	}
}

func TestTrainLossDecreases(t *testing.T) {
	ds := tinyDS(3)
	cfg := tinyCfg()
	cfg.Epochs = 4
	tr, err := New(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	losses, _, _ := tr.Run()
	if losses[len(losses)-1] >= losses[0] {
		t.Fatalf("loss should fall: %v", losses)
	}
}

func TestAllVariantsRun(t *testing.T) {
	ds := tinyDS(4)
	for _, v := range []struct {
		name   string
		ab, an bool
	}{
		{"baseline", false, false},
		{"adabatch", true, false},
		{"adaneighbor", false, true},
		{"taser", true, true},
	} {
		cfg := tinyCfg()
		cfg.AdaBatch, cfg.AdaNeighbor = v.ab, v.an
		tr, err := New(cfg, ds)
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		res := tr.TrainEpoch()
		if res.Steps == 0 || math.IsNaN(res.MeanLoss) {
			t.Fatalf("%s: %+v", v.name, res)
		}
		if v.ab && tr.Selector == nil || v.an && tr.Sampler == nil {
			t.Fatalf("%s: adaptive components missing", v.name)
		}
	}
}

func TestAdaBatchUpdatesScores(t *testing.T) {
	ds := tinyDS(5)
	cfg := tinyCfg()
	cfg.AdaBatch = true
	tr, _ := New(cfg, ds)
	tr.TrainEpoch()
	// After an epoch, at least some scores must have left the uniform init.
	changed := 0
	for e := 0; e < tr.Selector.Len(); e++ {
		if tr.Selector.Score(e) != 1 {
			changed++
		}
	}
	if changed == 0 {
		t.Fatal("adaptive batch selection never updated P")
	}
}

func TestTimerBucketsPopulated(t *testing.T) {
	ds := tinyDS(6)
	cfg := tinyCfg()
	cfg.AdaNeighbor = true
	tr, _ := New(cfg, ds)
	tr.TrainStep()
	for _, bucket := range []string{"NF", "AS", "FS", "PP"} {
		if tr.Timer.Get(bucket) <= 0 {
			t.Fatalf("bucket %s empty", bucket)
		}
	}
}

func TestEvalMRRBounds(t *testing.T) {
	ds := tinyDS(7)
	cfg := tinyCfg()
	tr, _ := New(cfg, ds)
	mrr := tr.EvalMRR(SplitTest)
	if mrr < 0 || mrr > 1 {
		t.Fatalf("MRR out of bounds: %v", mrr)
	}
	// Untrained model with 5 negatives: expected MRR ≈ mean(1/rank) over
	// uniform ranks 1..6 ≈ 0.41; allow a generous band.
	if mrr < 0.1 || mrr > 0.8 {
		t.Fatalf("untrained MRR %v implausible for 5 negatives", mrr)
	}
}

func TestEvalRespectsMaxEdges(t *testing.T) {
	ds := tinyDS(8)
	cfg := tinyCfg()
	cfg.MaxEvalEdges = 10
	tr, _ := New(cfg, ds)
	// Just verify it runs fast and returns a sane value on both splits.
	for _, split := range []Split{SplitVal, SplitTest} {
		if m := tr.EvalMRR(split); m < 0 || m > 1 {
			t.Fatalf("split %d: %v", split, m)
		}
	}
}

func TestTrainingImprovesMRR(t *testing.T) {
	// The synthetic affinity signal must be learnable: trained MRR should
	// beat the untrained model's MRR by a clear margin.
	ds := datasets.Generate(datasets.Spec{
		Name: "learn", NumNodes: 60, NumSrc: 48, NumEvents: 2500,
		NodeDim: 0, EdgeDim: 8,
		NoiseRate: 0.1, DriftRate: 0.5, RepeatRate: 0.6, Skew: 1.0,
		Seed: 11,
	})
	cfg := Config{
		Model: ModelGraphMixer, Hidden: 16, TimeDim: 8, N: 5, M: 10,
		BatchSize: 100, Epochs: 5, EvalNegatives: 9, MaxEvalEdges: 150,
		LR: 3e-3, Seed: 5,
	}
	tr, err := New(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	before := tr.EvalMRR(SplitTest)
	for e := 0; e < cfg.Epochs; e++ {
		tr.TrainEpoch()
	}
	after := tr.EvalMRR(SplitTest)
	if after <= before+0.05 {
		t.Fatalf("training did not improve MRR: before %v after %v", before, after)
	}
}

func TestCacheIntegrationHitRateRises(t *testing.T) {
	ds := tinyDS(9)
	cfg := tinyCfg()
	cfg.CacheRatio = 0.3
	tr, _ := New(cfg, ds)
	tr.TrainEpoch() // epoch 1 trains the cache
	pol := tr.EdgeStore.Policy()
	pol.ResetStats()
	tr.TrainEpoch()
	if pol.HitRate() < 0.2 {
		t.Fatalf("warm cache hit rate %v implausibly low", pol.HitRate())
	}
}

func TestNegativeDstRespectsBipartite(t *testing.T) {
	ds := tinyDS(10) // NumSrc=48
	cfg := tinyCfg()
	tr, _ := New(cfg, ds)
	for i := 0; i < 200; i++ {
		if v := tr.negativeDst(); v < 48 || v >= 60 {
			t.Fatalf("negative %d outside destination partition", v)
		}
	}
}

func TestTGLFinderBaselineEpoch(t *testing.T) {
	// The chronological baseline must work with the TGL finder (this is how
	// TGL trains), including the epoch-boundary pointer reset.
	ds := tinyDS(12)
	cfg := tinyCfg()
	cfg.Finder = FinderTGL
	tr, err := New(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	tr.TrainEpoch()
	tr.TrainEpoch() // would fail without Reset between epochs
}

func TestOriginFinderBaselineStep(t *testing.T) {
	ds := tinyDS(13)
	cfg := tinyCfg()
	cfg.Finder = FinderOrigin
	tr, err := New(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	if loss := tr.TrainStep(); math.IsNaN(loss) {
		t.Fatal("origin finder step")
	}
}

// TestStepPCIeRequestsAreMissedEdgeRows: wikipedia has no node features, so
// a step's PCIe requests are its edge rows that miss the cache — the real
// edge rows its build slices (the valid slots of its blocks and, with
// adaptive sampling, of its candidate set) less those served from VRAM. A
// zero-width node row is no transfer.
func TestStepPCIeRequestsAreMissedEdgeRows(t *testing.T) {
	ds := datasets.Wikipedia(0.05, 3)
	if ds.Spec.NodeDim != 0 {
		t.Fatalf("wikipedia has %d-wide node features", ds.Spec.NodeDim)
	}
	for _, ada := range []bool{false, true} {
		tr, err := New(Config{Model: ModelTGAT, AdaNeighbor: ada, CacheRatio: 0.2,
			Hidden: 8, TimeDim: 4, BatchSize: 32, Seed: 3}, ds)
		if err != nil {
			t.Fatal(err)
		}
		for epoch := 0; epoch < 2; epoch++ { // the second epoch's cache holds rows
			for i := 0; i < 10; i++ { // past the first batches' empty neighborhoods
				tr.TrainStep()
			}
			pcie, vram := tr.Xfer.PCIeRequests(), tr.Xfer.VRAMRequests()
			edges := tr.nextBatchEdges()
			built := tr.buildBatch(tr.rootsForEdges(edges), edges)
			rows := 0
			for _, blk := range built.mb.Layers {
				rows += len(blk.Valid)
			}
			if built.cs != nil {
				rows += len(built.cs.Valid)
			}
			pcie, vram = tr.Xfer.PCIeRequests()-pcie, tr.Xfer.VRAMRequests()-vram
			if pcie != int64(rows)-vram {
				t.Fatalf("ada=%v epoch %d: %d PCIe requests for %d edge rows, %d of them VRAM hits",
					ada, epoch, pcie, rows, vram)
			}
			t.Logf("ada=%v epoch %d: %d edge rows, %d VRAM hits", ada, epoch, rows, vram)
			tr.releaseBatch(&built)
			tr.TrainEpoch()
		}
	}
}
