package models

import (
	"fmt"
	"math"
	"testing"

	"taser/internal/autograd"
	"taser/internal/mathx"
	"taser/internal/nn"
	"taser/internal/tensor"
)

// buildMiniBatch constructs a random but structurally valid minibatch with
// the given root count, layer count, budget and feature widths. fillRatio
// controls how many neighbor slots are valid.
func buildMiniBatch(rng *mathx.RNG, roots, layers, budget, nodeDim, edgeDim int, fillRatio float64) *MiniBatch {
	return buildMiniBatchWhere(rng, roots, layers, budget, nodeDim, edgeDim,
		func(k, i, j int) bool { return rng.Float64() < fillRatio })
}

// buildMiniBatchWhere is buildMiniBatch with slot (i, j) of layer k valid iff
// keep says so. Padding slots keep a block's zero Δt and edge features, as
// in the real build path.
func buildMiniBatchWhere(rng *mathx.RNG, roots, layers, budget, nodeDim, edgeDim int, keep func(k, i, j int) bool) *MiniBatch {
	mb := &MiniBatch{}
	mb.Layers = make([]*LayerBlock, layers)
	t := roots
	// Outermost first, then grow inward.
	for k := layers - 1; k >= 0; k-- {
		block := NewLayerBlock(t, budget, edgeDim)
		for i := 0; i < t; i++ {
			for j := 0; j < budget; j++ {
				if keep(k, i, j) {
					block.SetEntry(i, j, int32(rng.Intn(100)), rng.Float64()*10)
					if edgeDim > 0 {
						row := block.EdgeFeat.Row(i*budget + j)
						for c := range row {
							row[c] = rng.NormFloat64()
						}
					}
				}
			}
		}
		block.FinishMask()
		mb.Layers[k] = block
		t = t * (1 + budget)
	}
	mb.LeafFeat = tensor.Randn(t, nodeDim, 1, rng)
	return mb
}

func TestMiniBatchValidate(t *testing.T) {
	rng := mathx.NewRNG(1)
	mb := buildMiniBatch(rng, 3, 2, 4, 5, 6, 1.0)
	if err := mb.Validate(); err != nil {
		t.Fatal(err)
	}
	if mb.Roots() != 3 {
		t.Fatal("Roots")
	}
	// Break the invariant.
	mb.Layers[0].NumTargets--
	if err := mb.Validate(); err == nil {
		t.Fatal("broken layout must fail validation")
	}
	empty := &MiniBatch{}
	if err := empty.Validate(); err == nil {
		t.Fatal("empty minibatch must fail validation")
	}
}

// TestLayerBlockMasking: SetEntry alone writes Valid, and keeps it strictly
// ascending and free of repeats in any call order — out of order, repeated,
// and after FinishMask — with −1 in NbrNodes on exactly the slots it does
// not name once FinishMask has run. A recycled block starts empty.
func TestLayerBlockMasking(t *testing.T) {
	b := NewLayerBlock(2, 3, 0)
	b.SetEntry(1, 2, 9, 0.5)
	b.SetEntry(0, 0, 7, 1.5)
	b.SetEntry(1, 2, 8, 0.25) // a repeat overwrites, and indexes nothing new
	b.SetEntry(0, 1, 6, 2)
	b.FinishMask()
	b.SetEntry(1, 0, 5, 3) // after FinishMask
	want := map[int32]int32{0: 7, 1: 6, 3: 5, 5: 8}
	if fmt.Sprint(b.Valid) != "[0 1 3 5]" {
		t.Fatalf("valid-slot index %v, want [0 1 3 5]", b.Valid)
	}
	for s, node := range b.NbrNodes {
		if w, ok := want[int32(s)]; !ok && node != -1 || ok && node != w {
			t.Fatalf("NbrNodes %v: want %v at the named slots and -1 elsewhere", b.NbrNodes, want)
		}
	}
	if b.DeltaT.Data[5] != 0.25 {
		t.Fatalf("repeated entry's Δt %v, want the last write", b.DeltaT.Data[5])
	}
	b.Reset(1, 2, 0)
	b.FinishMask()
	if len(b.Valid) != 0 || b.NbrNodes[0] != -1 || b.NbrNodes[1] != -1 {
		t.Fatalf("reset block indexes %v with nodes %v", b.Valid, b.NbrNodes)
	}
}

func TestTGATForwardShapes(t *testing.T) {
	rng := mathx.NewRNG(2)
	cfg := TGATConfig{NodeDim: 4, EdgeDim: 3, HiddenDim: 8, TimeDim: 5, Layers: 2, Budget: 3}
	m := NewTGAT(cfg, rng)
	mb := buildMiniBatch(rng, 6, 2, 3, 4, 3, 0.8)
	g := autograd.New()
	out, info := m.Forward(g, mb)
	if out.Rows() != 6 || out.Cols() != 8 {
		t.Fatalf("output %dx%d", out.Rows(), out.Cols())
	}
	if info.Attn == nil || info.Vals == nil || info.Scores == nil || info.Out != out {
		t.Fatal("co-train info must capture attention internals")
	}
	if info.Attn.Rows() != 6 || info.Attn.Cols() != 3 {
		t.Fatal("attention shape")
	}
	if v := len(mb.Layers[1].Valid); info.Vals.Rows() != v || len(info.Slots) != v {
		t.Fatalf("%d value rows for %d slots, want one per valid root slot (%d)", info.Vals.Rows(), len(info.Slots), v)
	}
	if m.NumLayers() != 2 || m.HiddenDim() != 8 {
		t.Fatal("accessors")
	}
}

func TestTGATZeroWidthFeatures(t *testing.T) {
	// Wikipedia-style datasets have no node features; Flights has no edge
	// features. Both degenerate widths must work.
	rng := mathx.NewRNG(3)
	for _, dims := range [][2]int{{0, 3}, {4, 0}, {0, 0}} {
		cfg := TGATConfig{NodeDim: dims[0], EdgeDim: dims[1], HiddenDim: 6, TimeDim: 4, Layers: 2, Budget: 2}
		m := NewTGAT(cfg, rng)
		mb := buildMiniBatch(rng, 4, 2, 2, dims[0], dims[1], 0.9)
		out, _ := m.Forward(autograd.New(), mb)
		if out.Rows() != 4 || out.Cols() != 6 {
			t.Fatalf("dims %v: output %dx%d", dims, out.Rows(), out.Cols())
		}
		for _, v := range out.Val.Data {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("dims %v: non-finite output", dims)
			}
		}
	}
}

func TestTGATPaddingDoesNotAffectOutput(t *testing.T) {
	// Changing the edge features / Δt of a PADDED slot must not change the
	// output at all (only the slots Valid names are read).
	rng := mathx.NewRNG(4)
	cfg := TGATConfig{NodeDim: 2, EdgeDim: 2, HiddenDim: 6, TimeDim: 4, Layers: 1, Budget: 3}
	m := NewTGAT(cfg, rng)
	// Everything valid but slot (0, 2).
	mb := buildMiniBatchWhere(rng, 2, 1, 3, 2, 2, func(k, i, j int) bool { return i != 0 || j != 2 })
	block := mb.Layers[0]
	s := 0*3 + 2
	out1, _ := m.Forward(autograd.New(), mb)
	// Perturb the padded slot's inputs.
	block.EdgeFeat.Set(s, 0, 999)
	block.DeltaT.Data[s] = 777
	out2, _ := m.Forward(autograd.New(), mb)
	if !out1.Val.Equal(out2.Val, 1e-9) {
		t.Fatal("padded slots must be inert")
	}
}

func TestTGATAllPaddedNeighborhood(t *testing.T) {
	// A root with zero sampled neighbors must still produce finite output.
	rng := mathx.NewRNG(5)
	cfg := TGATConfig{NodeDim: 2, EdgeDim: 2, HiddenDim: 4, TimeDim: 3, Layers: 1, Budget: 2}
	m := NewTGAT(cfg, rng)
	mb := buildMiniBatch(rng, 2, 1, 2, 2, 2, 0.0) // nothing valid
	out, _ := m.Forward(autograd.New(), mb)
	for _, v := range out.Val.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("all-padded neighborhood must stay finite")
		}
	}
}

func TestTGATGradientsFlowToAllParams(t *testing.T) {
	rng := mathx.NewRNG(6)
	cfg := TGATConfig{NodeDim: 3, EdgeDim: 2, HiddenDim: 5, TimeDim: 4, Layers: 2, Budget: 2}
	m := NewTGAT(cfg, rng)
	mb := buildMiniBatch(rng, 4, 2, 2, 3, 2, 1.0)
	g := autograd.New()
	out, _ := m.Forward(g, mb)
	ones := tensor.New(out.Rows(), out.Cols())
	ones.Fill(1)
	g.Backward(g.WeightedSumConst(out, ones))
	for i, p := range m.Params() {
		if p.Grad.MaxAbs() == 0 {
			t.Fatalf("TGAT param %d got no gradient", i)
		}
	}
}

func TestTGATDeterministic(t *testing.T) {
	cfg := TGATConfig{NodeDim: 2, EdgeDim: 2, HiddenDim: 4, TimeDim: 3, Layers: 2, Budget: 2}
	m1 := NewTGAT(cfg, mathx.NewRNG(7))
	m2 := NewTGAT(cfg, mathx.NewRNG(7))
	mb := buildMiniBatch(mathx.NewRNG(8), 3, 2, 2, 2, 2, 0.7)
	o1, _ := m1.Forward(autograd.New(), mb)
	o2, _ := m2.Forward(autograd.New(), mb)
	if !o1.Val.Equal(o2.Val, 0) {
		t.Fatal("same seed must give identical models")
	}
}

func TestGraphMixerForwardShapes(t *testing.T) {
	rng := mathx.NewRNG(9)
	cfg := GraphMixerConfig{NodeDim: 3, EdgeDim: 4, HiddenDim: 8, TimeDim: 6, Budget: 5}
	m := NewGraphMixer(cfg, rng)
	mb := buildMiniBatch(rng, 7, 1, 5, 3, 4, 0.8)
	out, info := m.Forward(autograd.New(), mb)
	if out.Rows() != 7 || out.Cols() != 8 {
		t.Fatalf("output %dx%d", out.Rows(), out.Cols())
	}
	if v := len(mb.Layers[0].Valid); info.Tokens == nil || info.Tokens.Rows() != v || len(info.Slots) != v {
		t.Fatal("co-train tokens missing: want one row per valid slot")
	}
	if m.NumLayers() != 1 {
		t.Fatal("GraphMixer is single layer")
	}
}

func TestGraphMixerPaddingInert(t *testing.T) {
	rng := mathx.NewRNG(10)
	cfg := GraphMixerConfig{NodeDim: 0, EdgeDim: 3, HiddenDim: 6, TimeDim: 4, Budget: 3}
	m := NewGraphMixer(cfg, rng)
	mb := buildMiniBatchWhere(rng, 2, 1, 3, 0, 3, func(k, i, j int) bool { return i != 1 || j != 1 })
	block := mb.Layers[0]
	s := 1*3 + 1
	out1, _ := m.Forward(autograd.New(), mb)
	block.EdgeFeat.Set(s, 1, -555)
	block.DeltaT.Data[s] = 123
	out2, _ := m.Forward(autograd.New(), mb)
	if !out1.Val.Equal(out2.Val, 1e-9) {
		t.Fatal("padded GraphMixer tokens must be inert")
	}
}

func TestGraphMixerGradientsFlow(t *testing.T) {
	rng := mathx.NewRNG(11)
	cfg := GraphMixerConfig{NodeDim: 2, EdgeDim: 2, HiddenDim: 4, TimeDim: 3, Budget: 4}
	m := NewGraphMixer(cfg, rng)
	mb := buildMiniBatch(rng, 3, 1, 4, 2, 2, 1.0)
	g := autograd.New()
	out, _ := m.Forward(g, mb)
	ones := tensor.New(out.Rows(), out.Cols())
	ones.Fill(1)
	g.Backward(g.WeightedSumConst(out, ones))
	for i, p := range m.Params() {
		if p.Grad.MaxAbs() == 0 {
			t.Fatalf("GraphMixer param %d got no gradient", i)
		}
	}
}

func TestEdgePredictorShapesAndGrad(t *testing.T) {
	rng := mathx.NewRNG(12)
	p := NewEdgePredictor(6, rng)
	g := autograd.New()
	emb := autograd.NewParam(tensor.Randn(9, 6, 1, rng)) // 3 roots × (u, v, v')
	logits := p.ScoreGathered(g, emb, []int32{0, 0}, []int32{1, 2})
	if logits.Rows() != 2 || logits.Cols() != 1 {
		t.Fatalf("logits %dx%d", logits.Rows(), logits.Cols())
	}
	g.Backward(g.BCEWithLogits(logits, []float64{1, 0}))
	for i, prm := range p.Params() {
		if prm.Grad.MaxAbs() == 0 {
			t.Fatalf("predictor param %d got no gradient", i)
		}
	}
	if emb.Grad.MaxAbs() == 0 {
		t.Fatal("gradients must flow back into embeddings")
	}
}

func TestLearnableTimeEncZero(t *testing.T) {
	rng := mathx.NewRNG(13)
	enc := NewLearnableTimeEnc(4, rng)
	g := autograd.New()
	z := enc.EncodeZeros(g, 3)
	if z.Rows() != 3 || z.Cols() != 4 {
		t.Fatal("shape")
	}
	// Φ(0) = cos(b): all rows identical.
	for j := 0; j < 4; j++ {
		want := math.Cos(enc.B.Val.Data[j])
		for i := 0; i < 3; i++ {
			if math.Abs(z.Val.At(i, j)-want) > 1e-12 {
				t.Fatal("Φ(0) must equal cos(b)")
			}
		}
	}
}

func TestLearnableTimeEncGradCheck(t *testing.T) {
	rng := mathx.NewRNG(14)
	enc := NewLearnableTimeEnc(3, rng)
	dt := tensor.FromSlice(4, 1, []float64{0.5, 1.5, 3, 0})
	coef := tensor.Randn(4, 3, 1, rng)
	// Finite-difference check through the cos encoding.
	forward := func(g *autograd.Graph) *autograd.Var {
		return g.WeightedSumConst(enc.Encode(g, dt), coef)
	}
	for _, p := range enc.Params() {
		p.Grad.Zero()
	}
	g := autograd.New()
	g.Backward(forward(g))
	const h = 1e-6
	for _, p := range enc.Params() {
		for i := range p.Val.Data {
			orig := p.Val.Data[i]
			p.Val.Data[i] = orig + h
			up := forward(autograd.New()).Val.Data[0]
			p.Val.Data[i] = orig - h
			down := forward(autograd.New()).Val.Data[0]
			p.Val.Data[i] = orig
			fd := (up - down) / (2 * h)
			if math.Abs(fd-p.Grad.Data[i]) > 1e-5 {
				t.Fatalf("time enc grad %v vs fd %v", p.Grad.Data[i], fd)
			}
		}
	}
}

func TestTGATLearnsAttentionSignal(t *testing.T) {
	// A smoke-level learning test: labels depend on a permutation-invariant
	// statistic of the root's neighborhood (the mean edge feature). TGAT +
	// predictor must beat chance comfortably after a few hundred steps.
	rng := mathx.NewRNG(15)
	cfg := TGATConfig{NodeDim: 0, EdgeDim: 1, HiddenDim: 8, TimeDim: 4, Layers: 1, Budget: 2}
	m := NewTGAT(cfg, rng)
	pred := NewEdgePredictor(8, rng)
	params := append(m.Params(), pred.Params()...)
	opt := nn.NewAdam(params, 0.01)
	correct, total := 0, 0
	const iters = 700
	for iter := 0; iter < iters; iter++ {
		mb := buildMiniBatch(rng, 8, 1, 2, 0, 1, 1.0)
		labels := make([]float64, 4)
		for i := 0; i < 4; i++ {
			if mb.Layers[0].EdgeFeat.At(i*2, 0)+mb.Layers[0].EdgeFeat.At(i*2+1, 0) > 0 {
				labels[i] = 1
			}
		}
		g := autograd.New()
		emb, _ := m.Forward(g, mb)
		logits := pred.ScoreGathered(g, emb, []int32{0, 1, 2, 3}, []int32{4, 5, 6, 7})
		loss := g.BCEWithLogits(logits, labels)
		g.Backward(loss)
		opt.Step()
		opt.ZeroGrad()
		if iter >= iters-100 {
			for i, y := range labels {
				if (logits.Val.Data[i] > 0) == (y == 1) {
					correct++
				}
				total++
			}
		}
	}
	acc := float64(correct) / float64(total)
	if acc < 0.8 {
		t.Fatalf("TGAT failed to learn separable signal: accuracy %v", acc)
	}
}
