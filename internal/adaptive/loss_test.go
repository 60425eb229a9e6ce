package adaptive

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"taser/internal/autograd"
	"taser/internal/mathx"
	"taser/internal/models"
	"taser/internal/tensor"
)

// sampleLossCoef runs SampleLoss against a log-probability parameter and
// returns its gradient: the coefficient table c_bp.
func sampleLossCoef(s *NeighborSampler, info *models.CoTrainInfo, sel *Selection, c *CandidateSet) *tensor.Matrix {
	logq := autograd.NewParam(tensor.New(c.B, c.M))
	sel.LogQ = logq
	g := autograd.New()
	g.Backward(s.SampleLoss(g, info, sel, c))
	return logq.Grad
}

// TestSampleLossReadsCompactRows: the REINFORCE coefficients SampleLoss
// takes from a real forward's compact value (TGAT) or token (GraphMixer)
// rows are bitwise those it takes from the same rows laid out padded —
// every slot named, zero rows at padding, the layout the models handed over
// before they went compact — and a chosen slot the model's block has no row
// for panics.
func TestSampleLossReadsCompactRows(t *testing.T) {
	const b, m, n, nodeDim, edgeDim = 5, 6, 3, 3, 2
	rng := mathx.NewRNG(61)
	s := NewSampler(defaultConfig(nodeDim, edgeDim, m, DecoderTrans), rng)
	c := fillCandidates(rng, b, m, nodeDim, edgeDim, 4)
	// Root i chose min(i, n) of its four valid candidates; root 0 none. As
	// the trainer builds it, the model's block holds root i's p-th chosen
	// candidate in slot i·n+p.
	sel := &Selection{Chosen: make([][]int, b)}
	block := models.NewLayerBlock(b, n, edgeDim)
	for i := range sel.Chosen {
		sel.Chosen[i] = []int{3, 0, 2}[:min(i, n)]
		for p, slot := range sel.Chosen[i] {
			block.SetEntry(i, p, c.Nodes[i*m+slot], c.DeltaT[i*m+slot])
			copy(block.EdgeFeat.Row(i*n+p), c.EdgeFeat.Row(i*m+slot))
		}
	}
	block.FinishMask()
	mb := &models.MiniBatch{Layers: []*models.LayerBlock{block}, LeafFeat: tensor.Randn(b*(1+n), nodeDim, 1, rng)}

	for _, model := range []models.TGNN{
		models.NewTGAT(models.TGATConfig{NodeDim: nodeDim, EdgeDim: edgeDim, HiddenDim: 5, TimeDim: 4, Layers: 1, Budget: n}, rng),
		models.NewGraphMixer(models.GraphMixerConfig{NodeDim: nodeDim, EdgeDim: edgeDim, HiddenDim: 5, TimeDim: 4, Budget: n}, rng),
	} {
		name := fmt.Sprintf("%T", model)
		g := autograd.New()
		out, info := model.Forward(g, mb)
		g.Backward(g.WeightedSumConst(out, tensor.Randn(out.Rows(), out.Cols(), 1, rng)))

		compact := info.Vals
		if compact == nil {
			compact = info.Tokens
		}
		if compact.Rows() != len(block.Valid) {
			t.Fatalf("%s: %d co-training rows for %d valid slots", name, compact.Rows(), len(block.Valid))
		}
		rows := tensor.New(b*n, compact.Cols())
		every := make([]int32, b*n)
		for s := range every {
			every[s] = int32(s)
		}
		for r, s := range info.Slots {
			copy(rows.Row(int(s)), compact.Val.Row(r))
		}
		padded := *info
		padded.Slots = every
		if info.Vals != nil {
			padded.Vals = autograd.NewConst(rows)
		} else {
			padded.Tokens = autograd.NewConst(rows)
		}

		got, want := sampleLossCoef(s, info, sel, c), sampleLossCoef(s, &padded, sel, c)
		if got.MaxAbs() == 0 {
			t.Fatalf("%s: every coefficient is zero; the comparison checks nothing", name)
		}
		for i, w := range want.Data {
			if math.Float64bits(got.Data[i]) != math.Float64bits(w) {
				t.Fatalf("%s: coefficient %d is %v from compact rows, %v from padded rows", name, i, got.Data[i], w)
			}
		}

		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(r.(string), "has no value or token row") {
					t.Fatalf("%s: a chosen slot without a row: recovered %v, want the missing-row panic", name, r)
				}
			}()
			stale := &Selection{Chosen: append([][]int{{1}}, sel.Chosen[1:]...)} // root 0's block slots are all padding
			sampleLossCoef(s, info, stale, c)
		}()
	}
}
