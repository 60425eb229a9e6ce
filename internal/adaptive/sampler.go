package adaptive

import (
	"fmt"
	"math"

	"taser/internal/autograd"
	"taser/internal/encoding"
	"taser/internal/mathx"
	"taser/internal/nn"
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
	// Dim is d_feat = d_time = d_freq: the projected width of node/edge
	// features (Eq. 14), the fixed time encoding's (Eq. 8) and the frequency
	// encoding's (Eq. 12). It is also the decoder heads' width.
	Dim     int
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

	// selFree recycles Selection headers (with their Chosen backing
	// storage) between Select and Recycle.
	selFree []*Selection
}

// NewSampler builds the sampler with all encoder components enabled.
func NewSampler(cfg SamplerConfig, rng *mathx.RNG) *NeighborSampler {
	if cfg.Dim <= 0 || cfg.M <= 0 {
		panic("adaptive: sampler dims must be positive")
	}
	s := &NeighborSampler{
		cfg:     cfg,
		timeEnc: encoding.NewTimeEncoder(cfg.Dim, 0, 0),
		freqEnc: encoding.NewFreqEncoder(cfg.Dim, cfg.M),
		rng:     rng.Split(),
	}
	if cfg.NodeDim > 0 {
		s.nodeProj = nn.NewLinear(cfg.NodeDim, cfg.Dim, rng)
	}
	if cfg.EdgeDim > 0 {
		s.edgeProj = nn.NewLinear(cfg.EdgeDim, cfg.Dim, rng)
	}
	enc := s.encDim()
	// Channel hidden = d_enc (1×), the narrowest mixer over the encoding.
	// Even so the sampler is no cheaper than the TGNN it serves on a CPU: AS
	// is more of a training epoch than PP (DESIGN.md §1 has the shares).
	s.mixer = nn.NewMixerBlock(cfg.M, enc, 0, enc, rng)
	dv := s.targetDim()
	h := cfg.Dim // decoder head width
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
		d += s.cfg.Dim
	}
	if s.cfg.EdgeDim > 0 {
		d += s.cfg.Dim
	}
	if s.cfg.UseTE {
		d += s.cfg.Dim
	}
	if s.cfg.UseFE {
		d += s.cfg.Dim
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
	d := 2 * s.cfg.Dim // time and frequency encodings
	if s.cfg.NodeDim > 0 {
		d += s.cfg.Dim
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
		te := g.Scratch(len(valid), s.cfg.Dim)
		s.timeEnc.EncodeRows(te.Data, dts.Data)
		parts = append(parts, g.Const(te))
	}
	if s.cfg.UseFE {
		fe := g.Scratch(len(valid), s.cfg.Dim)
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

// encodeTarget builds z_v = {h(v) ‖ TE(0) ‖ FE(1)} (Eq. 21) as its column
// parts, never concatenated: every head reads z_v through a linear layer,
// which takes the parts (DESIGN.md §6 "Affine over column parts"). The list
// is the sampler's own scratch, valid until the next encodeTarget.
func (s *NeighborSampler) encodeTarget(g *autograd.Graph, c *CandidateSet) []*autograd.Var {
	parts := s.tparts[:0]
	if s.nodeProj != nil {
		parts = append(parts, g.GELU(s.nodeProj.Apply(g, g.Const(c.TargetFeat))))
	}
	te := g.Scratch(c.B, s.cfg.Dim)
	fe := g.Scratch(c.B, s.cfg.Dim)
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
	return parts
}

// Scores computes the unnormalized per-root candidate scores in the B×M
// layout (before the softmax σ of Eqs. 17–20, which normalizes over c.Valid
// only). Only valid candidates are encoded, channel-mixed and decoded; their
// logits are scattered into the B×M layout — the trans head's grouped dot
// product writes that layout itself — so a padding slot scores exactly +0.
func (s *NeighborSampler) Scores(g *autograd.Graph, c *CandidateSet) *autograd.Var {
	if c.M != s.cfg.M {
		panic(fmt.Sprintf("adaptive: candidate set has m=%d, sampler built for m=%d", c.M, s.cfg.M))
	}
	valid, slots := c.Valid, c.B*c.M
	z := s.mixer.Apply(g, s.encode(g, c), valid, slots) // Z_Ns(v) (Eq. 16), valid rows

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
		v := g.GatherRows(s.gatV.ApplyParts(g, s.encodeTarget(g, c)...), rootOf(g, c))
		scores = fold(g.LeakyReLU(s.gatA.ApplyParts(g, u, v), 0.2))
	case DecoderGATv2:
		// [z_u ‖ z_v] as parts: z, then each part of z_v gathered to its
		// candidates (encode is done with the part scratch).
		root := rootOf(g, c)
		parts := append(s.parts[:0], z)
		for _, p := range s.encodeTarget(g, c) {
			parts = append(parts, g.GatherRows(p, root))
		}
		s.parts = parts[:0]
		scores = fold(s.gatv2A.Apply(g, g.LeakyReLU(s.gatv2W.ApplyParts(g, parts...), 0.2)))
	case DecoderTrans:
		// The scaled dot product is the grouped kernel's, which reads the
		// valid candidates' keys against their slots; a padding slot scores
		// +0.
		q := s.transQ.ApplyParts(g, s.encodeTarget(g, c)...)
		scores = g.GroupedScore(q, s.transK.Apply(g, z), valid, c.M, 1/math.Sqrt(float64(c.M)))
	}
	return scores
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
	// sample loss, +0 at padded slots; only entries at chosen slots receive
	// coefficients.
	LogQ *autograd.Var
}

// getSelection checks a Selection out of the free list (or allocates one),
// shaped for b roots. Per-root Chosen slices keep their capacity across
// recycles, so warm draws are allocation-free.
func (s *NeighborSampler) getSelection(b int) *Selection {
	n := len(s.selFree)
	if n == 0 {
		return &Selection{Chosen: make([][]int, b)}
	}
	sel := s.selFree[n-1]
	s.selFree[n-1] = nil
	s.selFree = s.selFree[:n-1]
	if cap(sel.Chosen) < b {
		chosen := make([][]int, b)
		copy(chosen, sel.Chosen[:cap(sel.Chosen)])
		sel.Chosen = chosen
	} else {
		sel.Chosen = sel.Chosen[:b]
	}
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
	s.selFree = append(s.selFree, sel)
}

// Select draws n supporting neighbors per root without replacement from
// q_θ(·|v) = softmax(scores) (Algorithm 1 line 6). The returned Selection is
// pooled: hand it back with Recycle when the batch that produced it is
// released (callers that never Recycle simply fall back to fresh
// allocations).
func (s *NeighborSampler) Select(g *autograd.Graph, c *CandidateSet, n int) *Selection {
	logq := g.LogSoftmaxSlots(s.Scores(g, c), c.Valid)
	sel := s.getSelection(c.B)
	sel.LogQ = logq
	if cap(s.wts) < c.M {
		s.wts = make([]float64, c.M)
	}
	weights := s.wts[:c.M]
	rest := c.Valid
	for b := 0; b < c.B; b++ {
		clear(weights)
		valid := 0 // root b's candidates
		for ; len(rest) > 0 && int(rest[0]) < (b+1)*c.M; rest = rest[1:] {
			slot := rest[0]
			weights[int(slot)-b*c.M] = math.Exp(logq.Val.Data[slot])
			valid++
		}
		if valid == 0 {
			sel.Chosen[b] = sel.Chosen[b][:0]
			continue
		}
		if cap(sel.Chosen[b]) < n {
			// Room for n at once: a slot whose draws grow one size at a
			// time would allocate again whenever its root first has more
			// candidates, long after warm-up.
			sel.Chosen[b] = make([]int, 0, n)
		}
		sel.Chosen[b] = s.ws.SampleInto(s.rng, weights, min(n, valid), sel.Chosen[b])
	}
	return sel
}
