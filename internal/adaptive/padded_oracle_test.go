package adaptive

import (
	"fmt"
	"math"
	"testing"

	"taser/internal/autograd"
	"taser/internal/encoding"
	"taser/internal/mathx"
	"taser/internal/tensor"
)

// paddedScores is NeighborSampler.Scores as it ran before the sampler went
// padding-free: every candidate slot is encoded, mixed and decoded on the
// full B·M layout, the target row is tiled across its M slots, and padding
// is masked afterwards. It survives only here, as the oracle the compact
// Scores must match bit for bit on valid slots and on every parameter
// gradient (DESIGN.md §6).
func paddedScores(s *NeighborSampler, g *autograd.Graph, c *CandidateSet) *autograd.Var {
	rows := c.B * c.M
	all := make([]int32, rows)  // identity: every slot "valid"
	tile := make([]int32, rows) // slot → root
	for i := range all {
		all[i], tile[i] = int32(i), int32(i/c.M)
	}

	var parts []*autograd.Var
	if s.nodeProj != nil {
		parts = append(parts, g.GELU(s.nodeProj.Apply(g, g.Const(c.NodeFeat))))
	}
	if s.edgeProj != nil {
		parts = append(parts, g.GELU(s.edgeProj.Apply(g, g.Const(c.EdgeFeat))))
	}
	if s.cfg.UseTE {
		te := tensor.New(rows, s.cfg.Dim)
		for i := 0; i < rows; i++ {
			s.timeEnc.Encode(te.Row(i), c.DeltaT[i])
		}
		parts = append(parts, g.Const(te))
	}
	if s.cfg.UseFE {
		fe := tensor.New(rows, s.cfg.Dim)
		freqs := make([]int, c.M)
		for b := 0; b < c.B; b++ {
			encoding.Frequencies(c.Nodes[b*c.M:(b+1)*c.M], freqs)
			for j, f := range freqs {
				s.freqEnc.Encode(fe.Row(b*c.M+j), f)
			}
		}
		parts = append(parts, g.Const(fe))
	}
	if s.cfg.UseIE {
		ie := tensor.New(rows, c.M)
		for i := 0; i < rows; i++ {
			b := i / c.M
			encoding.Identity(c.Nodes[b*c.M:(b+1)*c.M], i%c.M, ie.Row(i))
		}
		parts = append(parts, g.Const(ie))
	}
	z := g.ConcatCols(parts...)
	z = g.ScatterRows(g.GatherRows(z, c.Valid), c.Valid, rows) // zero padding tokens before mixing
	z = s.mixer.Apply(g, z, all, rows)

	var scores *autograd.Var
	switch s.cfg.Decoder {
	case DecoderLinear:
		scores = g.Reshape(s.linHead.Apply(g, z), c.B, c.M)
	case DecoderGAT:
		u := s.gatU.Apply(g, z)
		v := g.GatherRows(s.gatV.Apply(g, g.ConcatCols(s.encodeTarget(g, c)...)), tile)
		scores = g.Reshape(g.LeakyReLU(s.gatA.Apply(g, g.ConcatCols(u, v)), 0.2), c.B, c.M)
	case DecoderGATv2:
		v := g.GatherRows(g.ConcatCols(s.encodeTarget(g, c)...), tile)
		e := s.gatv2A.Apply(g, g.LeakyReLU(s.gatv2W.Apply(g, g.ConcatCols(z, v)), 0.2))
		scores = g.Reshape(e, c.B, c.M)
	case DecoderTrans:
		q := s.transQ.Apply(g, g.ConcatCols(s.encodeTarget(g, c)...))
		scores = g.GroupedScore(q, s.transK.Apply(g, z), all, c.M, 1/math.Sqrt(float64(c.M)))
	}
	_, bias := paddingMask(c)
	return g.Add(scores, g.Const(bias))
}

// paddingMask is what the padded path masks with, built from the set's
// valid-slot index: the 0/1 mask and the (mask−1)·1e9 logit bias, B×M each.
func paddingMask(c *CandidateSet) (mask, bias *tensor.Matrix) {
	mask, bias = tensor.New(c.B, c.M), tensor.New(c.B, c.M)
	bias.Fill(-1e9)
	for _, s := range c.Valid {
		mask.Data[s], bias.Data[s] = 1, 0
	}
	return mask, bias
}

// oracleCandidates builds a set whose slot (i, j) is valid iff keep says so.
// Every slot, padding included, carries random features and Δt: only the
// padded path ever reads the padding's.
func oracleCandidates(rng *mathx.RNG, b, m, nodeDim, edgeDim int, keep func(i, j int) bool) *CandidateSet {
	c := NewCandidateSet(b, m, nodeDim, edgeDim)
	for i := 0; i < b; i++ {
		for j := 0; j < m; j++ {
			if keep(i, j) {
				c.SetEntry(i, j, int32(rng.Intn(6)), rng.Float64()*5) // few ids: FE/IE see repeats
			} else {
				c.DeltaT[i*m+j] = rng.Float64() * 50
			}
		}
	}
	for _, mat := range []*tensor.Matrix{c.NodeFeat, c.EdgeFeat, c.TargetFeat} {
		for i := range mat.Data {
			mat.Data[i] = rng.NormFloat64()
		}
	}
	c.FinishMask()
	return c
}

func TestScoresCompactMatchesPaddedBitwise(t *testing.T) {
	const b, m = 5, 6
	for _, dec := range []Decoder{DecoderLinear, DecoderGAT, DecoderGATv2, DecoderTrans} {
		rng := mathx.NewRNG(51)
		s := NewSampler(defaultConfig(3, 2, m, dec), rng)
		// Away from the zero-initialized biases, as after a first step.
		for _, p := range s.Params() {
			for i := range p.Val.Data {
				p.Val.Data[i] += 0.05 * rng.NormFloat64()
			}
		}
		for _, fill := range []struct {
			name string
			keep func(i, j int) bool
		}{
			{"fill=0", func(i, j int) bool { return false }},                           // V = 0
			{"fill=0.3", func(i, j int) bool { return i != 0 && rng.Float64() < 0.3 }}, // root 0: no candidate
			{"fill=1", func(i, j int) bool { return true }},
		} {
			name := fmt.Sprintf("%s/%s", dec, fill.name)
			c := oracleCandidates(rng, b, m, 3, 2, fill.keep)
			// REINFORCE coefficients only ever sit on chosen, hence valid,
			// slots; a coefficient on padding would reach the parameters
			// through the padded path alone.
			mask, _ := paddingMask(c)
			coef := tensor.New(b, m)
			for i, v := range mask.Data {
				coef.Data[i] = v * math.Sin(float64(i+1))
			}
			// The padded path normalizes over every slot of its biased
			// scores, the compact one over the valid slots, as Select does.
			run := func(scoresOf func(g *autograd.Graph) *autograd.Var, slots []int32) (scores, logq []float64, grads [][]float64) {
				for _, p := range s.Params() {
					p.Grad.Zero()
				}
				g := autograd.New()
				sc := scoresOf(g)
				lq := g.LogSoftmaxSlots(sc, slots)
				g.Backward(g.WeightedSumConst(lq, coef))
				for _, p := range s.Params() {
					grads = append(grads, append([]float64(nil), p.Grad.Data...))
				}
				return sc.Val.Data, lq.Val.Data, grads
			}
			every := make([]int32, b*m)
			for i := range every {
				every[i] = int32(i)
			}
			want, wantLogQ, wantGrads := run(func(g *autograd.Graph) *autograd.Var { return paddedScores(s, g, c) }, every)
			got, gotLogQ, gotGrads := run(func(g *autograd.Graph) *autograd.Var { return s.Scores(g, c) }, c.Valid)
			for i, v := range mask.Data {
				switch {
				case v == 0 && (math.Float64bits(got[i]) != 0 || math.Float64bits(gotLogQ[i]) != 0 || want[i] > -1e8):
					t.Fatalf("%s: padding slot %d scores %v, log q %v (padded path %v)", name, i, got[i], gotLogQ[i], want[i])
				case v != 0 && math.Float64bits(got[i]) != math.Float64bits(want[i]):
					t.Fatalf("%s: slot %d scores %v, padded path %v", name, i, got[i], want[i])
				case v != 0 && math.Float64bits(gotLogQ[i]) != math.Float64bits(wantLogQ[i]):
					t.Fatalf("%s: slot %d log q %v, padded path %v", name, i, gotLogQ[i], wantLogQ[i])
				}
			}
			for pi := range wantGrads {
				for i, w := range wantGrads[pi] {
					if math.Float64bits(gotGrads[pi][i]) != math.Float64bits(w) {
						t.Fatalf("%s: gradient of param %d elem %d: compact %v, padded %v",
							name, pi, i, gotGrads[pi][i], w)
					}
				}
			}
		}
	}
}
