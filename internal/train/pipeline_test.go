package train

import (
	"math"
	"testing"

	"taser/internal/adaptive"
)

// stepLossesSync collects per-step losses over epochs full synchronous epochs.
func stepLossesSync(t *testing.T, cfg Config, seed uint64, epochs int) []float64 {
	t.Helper()
	ds := tinyDS(seed)
	tr, err := New(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	steps := (ds.TrainEnd + tr.Cfg.BatchSize - 1) / tr.Cfg.BatchSize
	var losses []float64
	for e := 0; e < epochs; e++ {
		for s := 0; s < steps; s++ {
			losses = append(losses, tr.TrainStep())
		}
		tr.endEpoch()
	}
	return losses
}

// stepLossesPipelined collects per-step losses through the pipeline.
func stepLossesPipelined(t *testing.T, cfg Config, seed uint64, epochs int) []float64 {
	t.Helper()
	ds := tinyDS(seed)
	tr, err := New(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	steps := (ds.TrainEnd + tr.Cfg.BatchSize - 1) / tr.Cfg.BatchSize
	var losses []float64
	for e := 0; e < epochs; e++ {
		p := tr.NewPipeline(steps)
		for {
			loss, ok := p.Step()
			if !ok {
				break
			}
			losses = append(losses, loss)
		}
		p.Close()
		tr.endEpoch()
	}
	return losses
}

// TestPipelinedMatchesSynchronous is the seeded equivalence property the
// pipeline is designed around: with AdaBatch off, every random draw happens
// in the same order as the synchronous loop, so per-step losses must be
// bitwise identical — at any prefetch depth, across epoch boundaries, for
// every finder and both backbones.
func TestPipelinedMatchesSynchronous(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"tgat-gpu", func(c *Config) {}},
		{"tgat-gpu-cache", func(c *Config) { c.CacheRatio = 0.3 }},
		{"tgat-origin", func(c *Config) { c.Finder = FinderOrigin }},
		{"tgat-tgl", func(c *Config) { c.Finder = FinderTGL }},
		{"graphmixer", func(c *Config) { c.Model = ModelGraphMixer }},
	}
	for _, tc := range cases {
		for _, depth := range []int{1, 2} {
			cfg := tinyCfg()
			cfg.PrefetchDepth = depth
			tc.mut(&cfg)
			want := stepLossesSync(t, cfg, 30, 2)
			got := stepLossesPipelined(t, cfg, 30, 2)
			if len(got) != len(want) {
				t.Fatalf("%s depth %d: %d pipelined steps, want %d", tc.name, depth, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s depth %d: step %d loss %v != synchronous %v",
						tc.name, depth, i, got[i], want[i])
				}
			}
		}
	}
}

// TestPipelinedAdaNeighborMatchesSynchronous extends the equivalence to
// adaptive neighbor sampling: the producer's finder (outer-hop candidates)
// and the consumer's finder (hops below the Selection) are independent
// instances, so each side's sampling stream depends only on its own call
// order — which is training order in both loops, however the goroutines
// interleave.
func TestPipelinedAdaNeighborMatchesSynchronous(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"graphmixer-1layer", func(c *Config) {
			c.Model = ModelGraphMixer
			c.Decoder = adaptive.DecoderLinear
		}},
		{"tgat-2layer", func(c *Config) {
			c.Decoder = adaptive.DecoderGATv2
		}},
		{"tgat-all-layers", func(c *Config) {
			c.Decoder = adaptive.DecoderTrans
			c.AdaAllLayers = true
		}},
	}
	for _, tc := range cases {
		cfg := tinyCfg()
		cfg.AdaNeighbor = true
		cfg.PrefetchDepth = 2
		tc.mut(&cfg)
		want := stepLossesSync(t, cfg, 31, 2)
		got := stepLossesPipelined(t, cfg, 31, 2)
		if len(got) != len(want) {
			t.Fatalf("%s: %d pipelined steps, want %d", tc.name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: step %d loss %v != synchronous %v", tc.name, i, got[i], want[i])
			}
		}
	}
}

// TestPipelinedRunsAreReproducible: two pipelined runs with the same seed
// must produce identical losses even with adaptive sampling on — the repo's
// bit-for-bit reproducibility contract must survive the concurrency.
func TestPipelinedRunsAreReproducible(t *testing.T) {
	cfg := tinyCfg()
	cfg.AdaNeighbor = true
	cfg.Decoder = adaptive.DecoderGATv2
	a := stepLossesPipelined(t, cfg, 37, 2)
	b := stepLossesPipelined(t, cfg, 37, 2)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("step %d: %v vs %v across identically seeded pipelined runs", i, a[i], b[i])
		}
	}
}

// TestTrainEpochPipelined checks the epoch wrapper end to end: same step
// count and mean loss as the synchronous epoch, twice in a row (cache epoch
// advance, TGL-style bookkeeping, cursor reset).
func TestTrainEpochPipelined(t *testing.T) {
	ds := tinyDS(32)
	cfg := tinyCfg()
	sync_, err := New(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := New(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 2; e++ {
		a := sync_.TrainEpoch()
		b := pipe.TrainEpochPipelined()
		if a.Steps != b.Steps {
			t.Fatalf("epoch %d: %d pipelined steps, want %d", e, b.Steps, a.Steps)
		}
		if a.MeanLoss != b.MeanLoss {
			t.Fatalf("epoch %d: mean loss %v != synchronous %v", e, b.MeanLoss, a.MeanLoss)
		}
	}
}

// TestPipelineEarlyShutdown closes pipelines mid-epoch — immediately, after a
// partial drain, and with prefetched batches still queued — and checks the
// trainer remains usable synchronously afterwards. Run under -race this also
// proves the producer/consumer handoff and buffer recycling are clean.
func TestPipelineEarlyShutdown(t *testing.T) {
	ds := tinyDS(33)
	for _, variant := range []struct {
		name string
		mut  func(*Config)
	}{
		{"baseline", func(c *Config) {}},
		{"taser", func(c *Config) {
			c.AdaBatch, c.AdaNeighbor = true, true
			c.Decoder = adaptive.DecoderGATv2
		}},
	} {
		cfg := tinyCfg()
		variant.mut(&cfg)
		tr, err := New(cfg, ds)
		if err != nil {
			t.Fatalf("%s: %v", variant.name, err)
		}
		for _, consumed := range []int{0, 3} {
			p := tr.NewPipeline(0) // unbounded
			for i := 0; i < consumed; i++ {
				if loss, ok := p.Step(); !ok || math.IsNaN(loss) {
					t.Fatalf("%s: pipelined step %d failed", variant.name, i)
				}
			}
			p.Close()
			p.Close() // idempotent
		}
		if loss := tr.TrainStep(); math.IsNaN(loss) || loss <= 0 {
			t.Fatalf("%s: synchronous step after shutdown: %v", variant.name, loss)
		}
	}
}

// TestPipelinedAdaptiveVariants drives every adaptive combination through
// full pipelined epochs: losses must stay finite and the loop race-clean even
// when the importance selector sees bounded-stale updates.
func TestPipelinedAdaptiveVariants(t *testing.T) {
	ds := tinyDS(34)
	for _, v := range []struct {
		name   string
		ab, an bool
	}{
		{"adabatch", true, false},
		{"adaneighbor", false, true},
		{"taser", true, true},
	} {
		cfg := tinyCfg()
		cfg.AdaBatch, cfg.AdaNeighbor = v.ab, v.an
		cfg.Decoder = adaptive.DecoderGATv2
		tr, err := New(cfg, ds)
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		for e := 0; e < 2; e++ {
			res := tr.TrainEpochPipelined()
			if res.Steps == 0 || math.IsNaN(res.MeanLoss) {
				t.Fatalf("%s: epoch %d: %+v", v.name, e, res)
			}
		}
	}
}

// TestPipelinedAllLayersAdaptive covers Algorithm 1's every-hop adaptive
// sampling through the pipeline (consumer-side inner-hop NF under finderMu).
func TestPipelinedAllLayersAdaptive(t *testing.T) {
	ds := tinyDS(35)
	cfg := tinyCfg()
	cfg.AdaNeighbor = true
	cfg.AdaAllLayers = true
	cfg.Decoder = adaptive.DecoderTrans
	tr, err := New(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	if res := tr.TrainEpochPipelined(); math.IsNaN(res.MeanLoss) {
		t.Fatalf("all-layers pipelined epoch: %+v", res)
	}
}

// TestPipelinedLossDecreases: the pipelined loop must actually train.
func TestPipelinedLossDecreases(t *testing.T) {
	ds := tinyDS(36)
	cfg := tinyCfg()
	cfg.Epochs = 4
	tr, err := New(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	var losses []float64
	for e := 0; e < cfg.Epochs; e++ {
		losses = append(losses, tr.TrainEpochPipelined().MeanLoss)
	}
	if losses[len(losses)-1] >= losses[0] {
		t.Fatalf("pipelined loss should fall: %v", losses)
	}
}

// TestPoolRoundTrip checks that recycled buffers come back with what the fill
// reads cleared — masks, ids — and reshaped (the property the equivalence test
// relies on). Feature rows are the slice's to write: TestPooledBuildEqualsFresh.
func TestPoolRoundTrip(t *testing.T) {
	p := newBuildPool()
	blk := p.getBlock(3, 2, 4)
	blk.SetEntry(1, 1, 7, 0.5)
	blk.FinishMask()
	p.putBlock(blk)
	blk2 := p.getBlock(3, 2, 4)
	if blk2 != blk {
		t.Fatal("expected the pooled block back")
	}
	for s, v := range blk2.Mask.Data {
		if v != 0 {
			t.Fatalf("recycled mask slot %d not zeroed: %v", s, v)
		}
	}
	for s, v := range blk2.MaskBias.Data {
		if v != 0 {
			t.Fatalf("recycled mask bias slot %d not zeroed: %v", s, v)
		}
	}
	for s, v := range blk2.NbrNodes {
		if v != 0 {
			t.Fatalf("recycled NbrNodes slot %d not zeroed: %v", s, v)
		}
	}
	// Shape change reuses the block only when capacity allows; either way the
	// result must be zeroed and correctly shaped.
	p.putBlock(blk2)
	blk3 := p.getBlock(2, 2, 4)
	if blk3.NumTargets != 2 || blk3.EdgeFeat.Rows != 4 || blk3.EdgeFeat.Cols != 4 {
		t.Fatalf("reshaped block: %+v", blk3)
	}
	cs := p.getSet(2, 3, 4, 5)
	cs.SetEntry(0, 1, 9, 1.5)
	cs.FinishMask()
	p.putSet(cs)
	cs2 := p.getSet(2, 3, 4, 5)
	if cs2 != cs {
		t.Fatal("expected the pooled candidate set back")
	}
	for s, v := range cs2.Mask.Data {
		if v != 0 {
			t.Fatalf("recycled candidate mask slot %d not zeroed: %v", s, v)
		}
	}
}
