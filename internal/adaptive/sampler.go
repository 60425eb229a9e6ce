package adaptive

import (
	"fmt"
	"math"
	"sync"

	"taser/internal/autograd"
	"taser/internal/encoding"
	"taser/internal/mathx"
	"taser/internal/models"
	"taser/internal/nn"
	"taser/internal/tensor"
)

// Decoder selects the predictor family that turns neighbor embeddings into
// sampling scores (Eqs. 17–20). The paper finds TGAT pairs best with GATv2
// and GraphMixer with the Mixer-style/linear head.
type Decoder int

const (
	// DecoderLinear is q_linear (Eq. 17).
	DecoderLinear Decoder = iota
	// DecoderGAT is q_gat (Eq. 18).
	DecoderGAT
	// DecoderGATv2 is q_gatv2 (Eq. 19).
	DecoderGATv2
	// DecoderTrans is q_trans (Eq. 20).
	DecoderTrans
)

// String implements fmt.Stringer.
func (d Decoder) String() string {
	switch d {
	case DecoderLinear:
		return "linear"
	case DecoderGAT:
		return "gat"
	case DecoderGATv2:
		return "gatv2"
	case DecoderTrans:
		return "trans"
	}
	return fmt.Sprintf("Decoder(%d)", int(d))
}

// ParseDecoder is the inverse of Decoder.String.
func ParseDecoder(name string) (Decoder, error) {
	for d := DecoderLinear; d <= DecoderTrans; d++ {
		if d.String() == name {
			return d, nil
		}
	}
	return 0, fmt.Errorf("adaptive: unknown decoder %q (known: linear, gat, gatv2, trans)", name)
}

// SamplerConfig configures the temporal adaptive neighbor sampler.
type SamplerConfig struct {
	NodeDim int // raw node-feature width (0 if absent)
	EdgeDim int // raw edge-feature width (0 if absent)
	FeatDim int // d_feat: projected width of node/edge features (Eq. 14)
	TimeDim int // d_time: fixed time-encoding width (Eq. 8)
	FreqDim int // d_freq: frequency-encoding width (Eq. 12)
	M       int // candidate-set size (neighbor finder budget m)
	Decoder Decoder

	// Encoder ablation switches (§IV-B's encoder study): all true by default
	// via NewSampler.
	UseTE, UseFE, UseIE bool
}

// NeighborSampler is the parameterized encoder–decoder q_θ(u|v) (§III-B).
// It encodes each candidate's contextual (node/edge features), temporal
// (TE), structural-recurrence (FE) and identity (IE) signals, mixes the
// neighborhood with a 1-layer MLP-Mixer (Eq. 16), and decodes a per-root
// score distribution with one of four predictor heads.
type NeighborSampler struct {
	cfg SamplerConfig

	timeEnc *encoding.TimeEncoder
	freqEnc *encoding.FreqEncoder

	nodeProj *nn.Linear // x_u → d_feat (Eq. 14)
	edgeProj *nn.Linear // x_uvt → d_feat
	mixer    *nn.MixerBlock

	// Decoder heads; only the configured one is used.
	linHead *nn.Linear // Z → 1 (Eq. 17)
	gatU    *nn.Linear // W_g z_u (Eq. 18)
	gatV    *nn.Linear // W_g z_v
	gatA    *nn.Linear // a^T [·‖·] (Eq. 18)
	gatv2W  *nn.Linear // W_g2 [z_u‖z_v] (Eq. 19)
	gatv2A  *nn.Linear
	transQ  *nn.Linear // W_t z_v (Eq. 20)
	transK  *nn.Linear // W'_t Z

	rng *mathx.RNG
	ws  mathx.WeightedSampler // per-root draw scratch (Select is serialized)
	wts []float64             // per-root weight scratch

	parts, tparts []*autograd.Var // encode/encodeTarget part-list scratch
	freqs         []int           // frequency-encoder scratch

	// selFree recycles Selection headers (with their Chosen/Probs backing
	// storage) between Select and Recycle; a mutex because release may happen
	// on a different goroutine than the next Select (pipeline shutdown).
	selMu   sync.Mutex
	selFree []*Selection
}

// NewSampler builds the sampler with all encoder components enabled.
func NewSampler(cfg SamplerConfig, rng *mathx.RNG) *NeighborSampler {
	if cfg.FeatDim <= 0 || cfg.TimeDim <= 0 || cfg.FreqDim <= 0 || cfg.M <= 0 {
		panic("adaptive: sampler dims must be positive")
	}
	s := &NeighborSampler{
		cfg:     cfg,
		timeEnc: encoding.NewTimeEncoder(cfg.TimeDim, 0, 0),
		freqEnc: encoding.NewFreqEncoder(cfg.FreqDim, cfg.M),
		rng:     rng.Split(),
	}
	if cfg.NodeDim > 0 {
		s.nodeProj = nn.NewLinear(cfg.NodeDim, cfg.FeatDim, rng)
	}
	if cfg.EdgeDim > 0 {
		s.edgeProj = nn.NewLinear(cfg.EdgeDim, cfg.FeatDim, rng)
	}
	enc := s.encDim()
	// Channel hidden = d_enc (1×) keeps the sampler an order of magnitude
	// cheaper than the TGNN it serves, matching Table III's small AS share.
	s.mixer = nn.NewMixerBlock(cfg.M, enc, 0, enc, rng)
	dv := s.targetDim()
	h := cfg.FeatDim // decoder head width
	switch cfg.Decoder {
	case DecoderLinear:
		s.linHead = nn.NewLinear(enc, 1, rng)
	case DecoderGAT:
		s.gatU = nn.NewLinear(enc, h, rng)
		s.gatV = nn.NewLinear(dv, h, rng)
		s.gatA = nn.NewLinear(2*h, 1, rng)
	case DecoderGATv2:
		s.gatv2W = nn.NewLinear(enc+dv, h, rng)
		s.gatv2A = nn.NewLinear(h, 1, rng)
	case DecoderTrans:
		s.transQ = nn.NewLinear(dv, h, rng)
		s.transK = nn.NewLinear(enc, h, rng)
	default:
		panic("adaptive: unknown decoder")
	}
	return s
}

// encDim is the neighbor embedding width d_enc (Eq. 15), depending on which
// encoder components are enabled.
func (s *NeighborSampler) encDim() int {
	d := 0
	if s.cfg.NodeDim > 0 {
		d += s.cfg.FeatDim
	}
	if s.cfg.EdgeDim > 0 {
		d += s.cfg.FeatDim
	}
	if s.cfg.UseTE {
		d += s.cfg.TimeDim
	}
	if s.cfg.UseFE {
		d += s.cfg.FreqDim
	}
	if s.cfg.UseIE {
		d += s.cfg.M
	}
	if d == 0 {
		panic("adaptive: all encoder components disabled")
	}
	return d
}

// targetDim is the width of the target embedding z_v (Eq. 21).
func (s *NeighborSampler) targetDim() int {
	d := s.cfg.TimeDim + s.cfg.FreqDim
	if s.cfg.NodeDim > 0 {
		d += s.cfg.FeatDim
	}
	return d
}

// Params exposes all trainable parameters.
func (s *NeighborSampler) Params() []*autograd.Var {
	mods := []nn.Module{s.mixer}
	for _, m := range []*nn.Linear{s.nodeProj, s.edgeProj, s.linHead, s.gatU, s.gatV,
		s.gatA, s.gatv2W, s.gatv2A, s.transQ, s.transK} {
		if m != nil {
			mods = append(mods, m)
		}
	}
	return nn.CollectParams(mods...)
}

// encode builds the neighbor embeddings z_(u,t) (Eq. 15) of a candidate
// set's valid slots, one row per entry of c.Valid. Encoder feature tables
// (TE/FE/IE) are graph-lifetime arena scratch; the part list reuses the
// sampler's own slice (Select calls are serialized).
func (s *NeighborSampler) encode(g *autograd.Graph, c *CandidateSet) *autograd.Var {
	valid := c.Valid
	parts := s.parts[:0]
	if s.nodeProj != nil {
		parts = append(parts, g.GELU(s.nodeProj.Apply(g, g.GatherRows(g.Const(c.NodeFeat), valid))))
	}
	if s.edgeProj != nil {
		parts = append(parts, g.GELU(s.edgeProj.Apply(g, g.GatherRows(g.Const(c.EdgeFeat), valid))))
	}
	if s.cfg.UseTE {
		dts := g.Scratch(len(valid), 1)
		for i, slot := range valid {
			dts.Data[i] = c.DeltaT[slot]
		}
		te := g.Scratch(len(valid), s.cfg.TimeDim)
		s.timeEnc.EncodeRows(te.Data, dts.Data)
		parts = append(parts, g.Const(te))
	}
	if s.cfg.UseFE {
		fe := g.Scratch(len(valid), s.cfg.FreqDim)
		if cap(s.freqs) < c.M {
			s.freqs = make([]int, c.M)
		}
		freqs := s.freqs[:c.M]
		root := -1 // whose frequencies freqs holds
		for i, slot := range valid {
			if b := int(slot) / c.M; b != root {
				root = b
				encoding.Frequencies(c.Nodes[b*c.M:(b+1)*c.M], freqs)
			}
			s.freqEnc.Encode(fe.Row(i), freqs[int(slot)%c.M])
		}
		parts = append(parts, g.Const(fe))
	}
	if s.cfg.UseIE {
		ie := g.Scratch(len(valid), c.M)
		for i, slot := range valid {
			b, j := int(slot)/c.M, int(slot)%c.M
			encoding.Identity(c.Nodes[b*c.M:(b+1)*c.M], j, ie.Row(i))
		}
		parts = append(parts, g.Const(ie))
	}
	s.parts = parts[:0]
	return g.ConcatCols(parts...)
}

// encodeTarget builds z_v = {h(v) ‖ TE(0) ‖ FE(1)} (Eq. 21).
func (s *NeighborSampler) encodeTarget(g *autograd.Graph, c *CandidateSet) *autograd.Var {
	parts := s.tparts[:0]
	if s.nodeProj != nil {
		parts = append(parts, g.GELU(s.nodeProj.Apply(g, g.Const(c.TargetFeat))))
	}
	te := g.Scratch(c.B, s.cfg.TimeDim)
	fe := g.Scratch(c.B, s.cfg.FreqDim)
	if c.B > 0 {
		// Every target has the same TE(0) ‖ FE(1): encode one row, copy it.
		s.timeEnc.Encode(te.Row(0), 0)
		s.freqEnc.Encode(fe.Row(0), 1)
		for i := 1; i < c.B; i++ {
			copy(te.Row(i), te.Row(0))
			copy(fe.Row(i), fe.Row(0))
		}
	}
	parts = append(parts, g.Const(te), g.Const(fe))
	s.tparts = parts[:0]
	return g.ConcatCols(parts...)
}

// Scores computes the unnormalized per-root candidate scores (before the
// softmax σ of Eqs. 17–20), with padding masked to −1e9. Only valid
// candidates are encoded, channel-mixed and decoded; their logits are
// scattered into the B×M layout — the trans head's grouped dot product
// writes that layout itself — so a padding slot scores exactly −1e9.
func (s *NeighborSampler) Scores(g *autograd.Graph, c *CandidateSet) *autograd.Var {
	if c.M != s.cfg.M {
		panic(fmt.Sprintf("adaptive: candidate set has m=%d, sampler built for m=%d", c.M, s.cfg.M))
	}
	if err := models.CheckValid(c.Mask, c.Valid); err != nil {
		panic(fmt.Sprintf("adaptive: candidate set: %v", err))
	}
	valid, slots := c.Valid, c.B*c.M
	// Scattering is the padding mask: token mixing sees zero rows there.
	z := g.ScatterRows(s.encode(g, c), valid, slots)
	z = s.mixer.Apply(g, z, valid) // Z_Ns(v) (Eq. 16), valid rows

	// A head's V×1 logits fold back into the B×M layout; where it needs the
	// root's target row next to a candidate it gathers through slot→root.
	fold := func(logits *autograd.Var) *autograd.Var {
		return g.Reshape(g.ScatterRows(logits, valid, slots), c.B, c.M)
	}
	var scores *autograd.Var
	switch s.cfg.Decoder {
	case DecoderLinear:
		scores = fold(s.linHead.Apply(g, z))
	case DecoderGAT:
		u := s.gatU.Apply(g, z)
		v := g.GatherRows(s.gatV.Apply(g, s.encodeTarget(g, c)), rootOf(g, c))
		scores = fold(g.LeakyReLU(s.gatA.ApplyParts(g, u, v), 0.2))
	case DecoderGATv2:
		v := g.GatherRows(s.encodeTarget(g, c), rootOf(g, c))
		scores = fold(s.gatv2A.Apply(g, g.LeakyReLU(s.gatv2W.ApplyParts(g, z, v), 0.2)))
	case DecoderTrans:
		// The dot product is the grouped kernel's, which reads the valid
		// candidates' keys against their slots; a padding slot scores +0.
		q := s.transQ.Apply(g, s.encodeTarget(g, c))
		scores = g.Scale(g.GroupedScore(q, s.transK.Apply(g, z), valid, c.M), 1/math.Sqrt(float64(c.M)))
	}
	return g.Add(scores, g.Const(c.MaskBias))
}

// rootOf maps each valid candidate to its root's row: slot / M.
func rootOf(g *autograd.Graph, c *CandidateSet) []int32 {
	idx := g.Ints(len(c.Valid))
	for i, slot := range c.Valid {
		idx[i] = slot / int32(c.M)
	}
	return idx
}

// Selection is the result of adaptive neighbor sampling for one batch.
type Selection struct {
	// Chosen[i] lists root i's selected candidate slots (indices in [0, M)),
	// at most n of them.
	Chosen [][]int
	// LogQ is the (differentiable) log-probability matrix B×M used by the
	// sample loss; only entries at chosen slots receive coefficients.
	LogQ *autograd.Var
	// Probs is the materialized q_θ(u|v) distribution (B×M), for tests.
	Probs *tensor.Matrix
}

// getSelection checks a Selection out of the free list (or allocates one),
// shaped for b roots with m candidates. Per-root Chosen slices keep their
// capacity across recycles, so warm draws are allocation-free.
func (s *NeighborSampler) getSelection(b, m int) *Selection {
	s.selMu.Lock()
	var sel *Selection
	if n := len(s.selFree); n > 0 {
		sel = s.selFree[n-1]
		s.selFree[n-1] = nil
		s.selFree = s.selFree[:n-1]
	}
	s.selMu.Unlock()
	if sel == nil {
		return &Selection{Chosen: make([][]int, b), Probs: tensor.New(b, m)}
	}
	if cap(sel.Chosen) < b {
		chosen := make([][]int, b)
		copy(chosen, sel.Chosen[:cap(sel.Chosen)])
		sel.Chosen = chosen
	} else {
		sel.Chosen = sel.Chosen[:b]
	}
	sel.Probs.Resize(b, m)
	return sel
}

// Recycle returns a Selection obtained from Select to the sampler's free
// list. The caller must be done with it (and with the graph pass that
// produced LogQ); the training loop recycles at batch release.
func (s *NeighborSampler) Recycle(sel *Selection) {
	if sel == nil {
		return
	}
	sel.LogQ = nil // graph-owned; dead at the producing graph's Reset
	s.selMu.Lock()
	s.selFree = append(s.selFree, sel)
	s.selMu.Unlock()
}

// Select draws n supporting neighbors per root without replacement from
// q_θ(·|v) = softmax(scores) (Algorithm 1 line 6). The returned Selection is
// pooled: hand it back with Recycle when the batch that produced it is
// released (callers that never Recycle simply fall back to fresh
// allocations).
func (s *NeighborSampler) Select(g *autograd.Graph, c *CandidateSet, n int) *Selection {
	scores := s.Scores(g, c)
	logq := g.LogSoftmaxRows(scores)
	sel := s.getSelection(c.B, c.M)
	sel.LogQ = logq
	if cap(s.wts) < c.M {
		s.wts = make([]float64, c.M)
	}
	weights := s.wts[:c.M]
	for b := 0; b < c.B; b++ {
		row := logq.Val.Row(b)
		for j := range weights {
			p := math.Exp(row[j]) * c.Mask.Data[b*c.M+j]
			weights[j] = p
			sel.Probs.Set(b, j, p)
		}
		valid := c.ValidCount(b)
		if valid == 0 {
			sel.Chosen[b] = sel.Chosen[b][:0]
			continue
		}
		k := mathx.MinInt(n, valid)
		sel.Chosen[b] = s.ws.SampleInto(s.rng, weights, k, sel.Chosen[b])
	}
	return sel
}
