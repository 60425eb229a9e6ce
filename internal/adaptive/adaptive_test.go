package adaptive

import (
	"math"
	"testing"

	"taser/internal/autograd"
	"taser/internal/mathx"
	"taser/internal/nn"
)

func TestSelectorInitUniform(t *testing.T) {
	s := NewMiniBatchSelector(100, mathx.NewRNG(1))
	if s.Len() != 100 {
		t.Fatal("Len")
	}
	for i := 0; i < 100; i++ {
		if s.Score(i) != 1 {
			t.Fatal("scores must initialize uniformly")
		}
	}
}

func TestSelectorBatchDistinct(t *testing.T) {
	s := NewMiniBatchSelector(50, mathx.NewRNG(2))
	batch := s.SampleBatchInto(20, nil)
	if len(batch) != 20 {
		t.Fatal("batch size")
	}
	seen := map[int]bool{}
	for _, e := range batch {
		if e < 0 || e >= 50 || seen[e] {
			t.Fatal("batch must hold distinct in-range indices")
		}
		seen[e] = true
	}
}

func TestSelectorUpdateShiftsDistribution(t *testing.T) {
	rng := mathx.NewRNG(3)
	s := NewMiniBatchSelector(100, rng)
	// Edge 0 gets a confident positive logit, edges 1..9 confident negatives.
	edges := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	logits := []float64{8, -8, -8, -8, -8, -8, -8, -8, -8, -8}
	s.Update(edges, logits)
	if math.Abs(s.Score(0)-1.1) > 1e-3 {
		t.Fatalf("P(confident)≈1.1, got %v", s.Score(0))
	}
	if math.Abs(s.Score(1)-0.1) > 1e-3 {
		t.Fatalf("P(noisy)≈γ, got %v", s.Score(1))
	}
	// Sampling must now visit edge 0 ~11× more often than edge 1.
	c0, c1 := 0, 0
	for trial := 0; trial < 30000; trial++ {
		for _, e := range s.SampleBatchInto(1, nil) {
			if e == 0 {
				c0++
			}
			if e == 1 {
				c1++
			}
		}
	}
	ratio := float64(c0) / float64(c1+1)
	if ratio < 5 {
		t.Fatalf("confident sample should dominate noisy one, ratio %v", ratio)
	}
}

func TestSelectorGammaFloorKeepsExploration(t *testing.T) {
	// Even an edge scored with a −∞-ish logit keeps probability ∝ γ.
	s := NewMiniBatchSelector(10, mathx.NewRNG(4))
	s.Update([]int{0}, []float64{-50})
	if s.Score(0) != Gamma {
		t.Fatalf("γ floor: %v", s.Score(0))
	}
}

func TestSelectorUpdatePanicsOnMismatch(t *testing.T) {
	s := NewMiniBatchSelector(5, mathx.NewRNG(5))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Update([]int{1, 2}, []float64{0})
}

// fillCandidates builds a candidate set with `valid` valid slots per root
// and random features.
func fillCandidates(rng *mathx.RNG, b, m, nodeDim, edgeDim, valid int) *CandidateSet {
	c := NewCandidateSet(b, m, nodeDim, edgeDim)
	for i := 0; i < b; i++ {
		for j := 0; j < valid; j++ {
			c.SetEntry(i, j, int32(rng.Intn(20)), rng.Float64()*5)
			for _, mat := range []struct {
				w   int
				row int
			}{{nodeDim, i*m + j}, {edgeDim, i*m + j}} {
				_ = mat
			}
			if nodeDim > 0 {
				row := c.NodeFeat.Row(i*m + j)
				for k := range row {
					row[k] = rng.NormFloat64()
				}
			}
			if edgeDim > 0 {
				row := c.EdgeFeat.Row(i*m + j)
				for k := range row {
					row[k] = rng.NormFloat64()
				}
			}
		}
	}
	if nodeDim > 0 {
		for i := 0; i < b; i++ {
			row := c.TargetFeat.Row(i)
			for k := range row {
				row[k] = rng.NormFloat64()
			}
		}
	}
	c.FinishMask()
	return c
}

func defaultConfig(nodeDim, edgeDim, m int, dec Decoder) SamplerConfig {
	return SamplerConfig{
		NodeDim: nodeDim, EdgeDim: edgeDim,
		FeatDim: 6, TimeDim: 6, FreqDim: 6, M: m,
		Decoder: dec, UseTE: true, UseFE: true, UseIE: true,
	}
}

func TestSamplerScoresShapesAllDecoders(t *testing.T) {
	for _, dec := range []Decoder{DecoderLinear, DecoderGAT, DecoderGATv2, DecoderTrans} {
		rng := mathx.NewRNG(6)
		s := NewSampler(defaultConfig(4, 3, 5, dec), rng)
		c := fillCandidates(rng, 3, 5, 4, 3, 5)
		scores := s.Scores(autograd.New(), c)
		if scores.Rows() != 3 || scores.Cols() != 5 {
			t.Fatalf("%s: scores %dx%d", dec, scores.Rows(), scores.Cols())
		}
		for _, v := range scores.Val.Data {
			if math.IsNaN(v) {
				t.Fatalf("%s: NaN score", dec)
			}
		}
	}
}

func TestSamplerMaskedScoresAreTiny(t *testing.T) {
	rng := mathx.NewRNG(7)
	s := NewSampler(defaultConfig(0, 2, 6, DecoderLinear), rng)
	c := fillCandidates(rng, 2, 6, 0, 2, 3) // half the slots padded
	scores := s.Scores(autograd.New(), c)
	for b := 0; b < 2; b++ {
		for j := 3; j < 6; j++ {
			if scores.Val.At(b, j) > -1e8 {
				t.Fatal("padded candidates must carry −1e9 bias")
			}
		}
	}
}

func TestSamplerSelectRespectsMaskAndBudget(t *testing.T) {
	rng := mathx.NewRNG(8)
	s := NewSampler(defaultConfig(2, 2, 8, DecoderGATv2), rng)
	c := fillCandidates(rng, 4, 8, 2, 2, 5)
	sel := s.Select(autograd.New(), c, 3)
	for b := 0; b < 4; b++ {
		if len(sel.Chosen[b]) != 3 {
			t.Fatalf("root %d selected %d", b, len(sel.Chosen[b]))
		}
		seen := map[int]bool{}
		for _, slot := range sel.Chosen[b] {
			if slot < 0 || slot >= 5 {
				t.Fatal("selected a padded slot")
			}
			if seen[slot] {
				t.Fatal("selection must be without replacement")
			}
			seen[slot] = true
		}
		// Probabilities over valid slots sum to ~1.
		var sum float64
		for j := 0; j < 8; j++ {
			sum += sel.Probs.At(b, j)
		}
		if math.Abs(sum-1) > 1e-6 {
			t.Fatalf("q must normalize over valid slots: %v", sum)
		}
	}
}

func TestSamplerSelectFewerValidThanBudget(t *testing.T) {
	rng := mathx.NewRNG(9)
	s := NewSampler(defaultConfig(0, 2, 6, DecoderTrans), rng)
	c := fillCandidates(rng, 2, 6, 0, 2, 2)
	sel := s.Select(autograd.New(), c, 5)
	for b := 0; b < 2; b++ {
		if len(sel.Chosen[b]) != 2 {
			t.Fatalf("must truncate to valid count, got %d", len(sel.Chosen[b]))
		}
	}
}

func TestSamplerSelectEmptyNeighborhood(t *testing.T) {
	rng := mathx.NewRNG(10)
	s := NewSampler(defaultConfig(0, 2, 4, DecoderLinear), rng)
	c := fillCandidates(rng, 2, 4, 0, 2, 0)
	sel := s.Select(autograd.New(), c, 3)
	if len(sel.Chosen[0]) != 0 || len(sel.Chosen[1]) != 0 {
		t.Fatal("empty neighborhoods select nothing")
	}
}

func TestSamplerEncoderAblations(t *testing.T) {
	rng := mathx.NewRNG(11)
	base := defaultConfig(3, 3, 4, DecoderLinear)
	for _, mod := range []func(*SamplerConfig){
		func(c *SamplerConfig) { c.UseTE = false },
		func(c *SamplerConfig) { c.UseFE = false },
		func(c *SamplerConfig) { c.UseIE = false },
		func(c *SamplerConfig) { c.UseTE, c.UseFE, c.UseIE = false, false, false },
	} {
		cfg := base
		mod(&cfg)
		s := NewSampler(cfg, rng)
		c := fillCandidates(rng, 2, 4, 3, 3, 4)
		scores := s.Scores(autograd.New(), c)
		if scores.Rows() != 2 || scores.Cols() != 4 {
			t.Fatal("ablated encoder must still score")
		}
	}
}

func TestSamplerPanicsAllComponentsDisabled(t *testing.T) {
	cfg := defaultConfig(0, 0, 4, DecoderLinear)
	cfg.UseTE, cfg.UseFE, cfg.UseIE = false, false, false
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSampler(cfg, mathx.NewRNG(12))
}

func TestSamplerGradFlowsThroughAllDecoders(t *testing.T) {
	for _, dec := range []Decoder{DecoderLinear, DecoderGAT, DecoderGATv2, DecoderTrans} {
		rng := mathx.NewRNG(13)
		s := NewSampler(defaultConfig(3, 2, 4, dec), rng)
		c := fillCandidates(rng, 3, 4, 3, 2, 4)
		g := autograd.New()
		scores := s.Scores(g, c)
		g.Backward(g.MeanAll(g.SoftmaxRows(scores)))
		any := false
		for _, p := range s.Params() {
			if p.Grad.MaxAbs() > 0 {
				any = true
			}
		}
		if !any {
			t.Fatalf("%s: no gradient reached sampler params", dec)
		}
	}
}

func TestSamplerLearnsToPreferInformativeNeighbors(t *testing.T) {
	// Synthetic REINFORCE loop without a TGNN: candidates with positive
	// first edge feature are "good" (reward +1 when selected), others are
	// "bad" (reward −1). Minimizing Σ(−reward)·logq must teach the sampler
	// to put most probability mass on good candidates.
	rng := mathx.NewRNG(14)
	cfg := defaultConfig(0, 2, 6, DecoderLinear)
	s := NewSampler(cfg, rng)
	opt := nn.NewAdam(s.Params(), 0.01)
	coefRNG := mathx.NewRNG(15)
	for iter := 0; iter < 300; iter++ {
		c := fillCandidates(coefRNG, 4, 6, 0, 2, 6)
		g := autograd.New()
		sel := s.Select(g, c, 3)
		coef := make([]float64, 4*6)
		for b := 0; b < 4; b++ {
			for _, slot := range sel.Chosen[b] {
				reward := -1.0
				if c.EdgeFeat.At(b*6+slot, 0) > 0 {
					reward = 1.0
				}
				coef[b*6+slot] = -reward // minimize −reward·logq
			}
		}
		lv := coefMatVar(g, sel, coef)
		g.Backward(lv)
		opt.Step()
		opt.ZeroGrad()
	}
	// Evaluate: probability mass on good candidates should dominate.
	c := fillCandidates(mathx.NewRNG(16), 50, 6, 0, 2, 6)
	sel := s.Select(autograd.New(), c, 3)
	var goodMass, totalMass float64
	for b := 0; b < 50; b++ {
		for j := 0; j < 6; j++ {
			p := sel.Probs.At(b, j)
			totalMass += p
			if c.EdgeFeat.At(b*6+j, 0) > 0 {
				goodMass += p
			}
		}
	}
	frac := goodMass / totalMass
	if frac < 0.7 {
		t.Fatalf("sampler failed to learn preference: good mass %v (chance ≈ 0.5)", frac)
	}
}

// coefMatVar builds Σ coef·logq on g.
func coefMatVar(g *autograd.Graph, sel *Selection, coef []float64) *autograd.Var {
	m := sel.LogQ
	cm := m.Val.Clone()
	copy(cm.Data, coef)
	return g.WeightedSumConst(sel.LogQ, cm)
}

func TestDecoderString(t *testing.T) {
	if DecoderLinear.String() != "linear" || DecoderGATv2.String() != "gatv2" ||
		DecoderGAT.String() != "gat" || DecoderTrans.String() != "trans" {
		t.Fatal("decoder names")
	}
	if Decoder(9).String() == "" {
		t.Fatal("unknown decoder must format")
	}
}

func TestCandidateSetHelpers(t *testing.T) {
	c := NewCandidateSet(2, 3, 0, 2)
	c.SetEntry(0, 0, 5, 1)
	c.SetEntry(1, 1, 6, 2)
	c.FinishMask()
	if c.ValidCount(0) != 1 || c.ValidCount(1) != 1 {
		t.Fatal("ValidCount")
	}
	if c.Nodes[1] != -1 || c.MaskBias.Data[1] != -1e9 {
		t.Fatal("padding")
	}
	if c.MaskBias.Data[0] != 0 {
		t.Fatal("valid slot bias")
	}
	if len(c.Valid) != 2 || c.Valid[0] != 0 || c.Valid[1] != 4 {
		t.Fatalf("valid-slot index %v, want [0 4]", c.Valid)
	}
	c.Reset(1, 2, 0, 2)
	c.FinishMask()
	if len(c.Valid) != 0 {
		t.Fatalf("reset set indexes %v", c.Valid)
	}
}

// TestParseDecoder: every decoder's name parses back to it, and anything
// else is an error rather than the zero value (the linear head).
func TestParseDecoder(t *testing.T) {
	for _, d := range []Decoder{DecoderLinear, DecoderGAT, DecoderGATv2, DecoderTrans} {
		got, err := ParseDecoder(d.String())
		if err != nil || got != d {
			t.Errorf("ParseDecoder(%q) = %v, %v; want %v", d.String(), got, err, d)
		}
	}
	for _, bad := range []string{"gatv3", "", "GATv2", "Decoder(7)"} {
		if got, err := ParseDecoder(bad); err == nil {
			t.Errorf("ParseDecoder(%q) = %v, want an error", bad, got)
		}
	}
}
