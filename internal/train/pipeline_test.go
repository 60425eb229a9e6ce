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

// stepLossesPipelined collects per-step losses through a Pipeline bounded to
// each epoch.
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

// pipelinedEpoch is TrainEpoch through a Pipeline bounded to the epoch, the
// way the benchmark's train-base-mixer laps run; it returns the mean loss
// and the step count.
func pipelinedEpoch(tr *Trainer) (mean float64, steps int) {
	p := tr.NewPipeline((tr.DS.TrainEnd + tr.Cfg.BatchSize - 1) / tr.Cfg.BatchSize)
	defer p.Close()
	var total float64
	for loss, ok := p.Step(); ok; loss, ok = p.Step() {
		total += loss
		steps++
	}
	tr.endEpoch()
	return total / float64(steps), steps
}

// TestPipelinedMatchesSynchronous: the benchmark's Pipeline laps train
// exactly as TrainStep does, so per-step losses are bitwise identical —
// across epoch boundaries, for every finder and both backbones.
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
		cfg := tinyCfg()
		tc.mut(&cfg)
		want := stepLossesSync(t, cfg, 30, 2)
		got := stepLossesPipelined(t, cfg, 30, 2)
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

// TestPipelinedAdaNeighborMatchesSynchronous extends the equivalence to
// adaptive neighbor sampling, whose outer-hop candidates and lower static
// hops sample two finder instances.
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
		{"tgat-trans", func(c *Config) {
			c.Decoder = adaptive.DecoderTrans
		}},
	}
	for _, tc := range cases {
		cfg := tinyCfg()
		cfg.AdaNeighbor = true
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
// produce identical losses with adaptive sampling on.
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

// TestPipelinedAdaptiveVariants drives every adaptive combination through
// full pipelined epochs: losses must stay finite.
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
			if mean, steps := pipelinedEpoch(tr); steps == 0 || math.IsNaN(mean) {
				t.Fatalf("%s: epoch %d: mean loss %v over %d steps", v.name, e, mean, steps)
			}
		}
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
		mean, _ := pipelinedEpoch(tr)
		losses = append(losses, mean)
	}
	if losses[len(losses)-1] >= losses[0] {
		t.Fatalf("pipelined loss should fall: %v", losses)
	}
}
