package adaptive

import (
	"fmt"
	"math"

	"taser/internal/autograd"
	"taser/internal/models"
)

// Eq. 25's REINFORCE hyperparameters α and β, at the paper's values.
const (
	reinforceAlpha = 2.0
	reinforceBeta  = 1.0
)

// SampleLoss constructs L_sample (Algorithm 1 line 12) on the sampler's
// graph, after the model loss has been back-propagated so that
// info.Out.Grad = dL_model/dh. The coefficients are frozen constants; only
// the log-probabilities carry gradient, exactly as prescribed by the
// log-derivative trick (Eq. 23).
//
// For TGAT the coefficient of root b's p-th selected neighbor follows
// Eq. 25:
//
//	c_bp = (1/(λ_b·α)) · â_bp · ⟨ V_bp + β·h_b , dL/dh_b ⟩
//
// with λ_b the Monte-Carlo estimate of E_q[e^a] computed with a max-shift
// for numerical stability (the shift rescales all of root b's coefficients
// equally, which α absorbs). For GraphMixer the folded form of Eq. 26 is
// used: c_bp = (1/n)·⟨ token_bp , dL/dh_b ⟩ (see DESIGN.md, substitution 5).
//
// The p-th selected neighbor of root b sits in slot b·n+p of the model's
// block, so its value or token row is the one info.Slots numbers b·n+p; a
// chosen slot without a row is a selection the block was not built from, and
// panics.
//
// The returned scalar is Σ c_bp · log q_θ(u_bp); minimizing it moves θ along
// the REINFORCE estimate of ∇_θ L_model.
func (s *NeighborSampler) SampleLoss(g *autograd.Graph, info *models.CoTrainInfo, sel *Selection, c *CandidateSet) *autograd.Var {
	coef := g.Scratch(c.B, c.M) // graph-lifetime: the tape borrows it until Reset
	n := info.Budget
	d := info.Out.Cols()
	rows := slotCursor{slots: info.Slots}
	switch {
	case info.Attn != nil: // TGAT (Eq. 25)
		for b := 0; b < c.B; b++ {
			chosen := sel.Chosen[b]
			if len(chosen) == 0 {
				continue
			}
			dh := info.Out.Grad.Row(b)
			h := info.Out.Val.Row(b)
			// λ_b = mean_p e^{a_bp − max_p a_bp} over selected positions.
			maxA := math.Inf(-1)
			for p := range chosen {
				if a := info.Scores.Val.At(b, p); a > maxA {
					maxA = a
				}
			}
			var lambda float64
			for p := range chosen {
				lambda += math.Exp(info.Scores.Val.At(b, p) - maxA)
			}
			lambda /= float64(len(chosen))
			if lambda <= 0 {
				continue
			}
			for p, slot := range chosen {
				attn := info.Attn.Val.At(b, p)
				vrow := info.Vals.Val.Row(rows.row(b*n + p))
				var dot float64
				for j := 0; j < d; j++ {
					dot += (vrow[j] + reinforceBeta*h[j]) * dh[j]
				}
				coef.Set(b, slot, attn*dot/(lambda*reinforceAlpha))
			}
		}
	case info.Tokens != nil: // GraphMixer (Eq. 26, folded)
		for b := 0; b < c.B; b++ {
			dh := info.Out.Grad.Row(b)
			for p, slot := range sel.Chosen[b] {
				trow := info.Tokens.Val.Row(rows.row(b*n + p))
				var dot float64
				for j := 0; j < d; j++ {
					dot += trow[j] * dh[j]
				}
				coef.Set(b, slot, dot/float64(n))
			}
		}
	default:
		panic("adaptive: co-train info carries neither attention nor tokens")
	}
	return g.WeightedSumConst(sel.LogQ, coef)
}

// slotCursor looks slots up in a strictly ascending slot index, moving
// forward only: SampleLoss asks for slots b·n+p in increasing order.
type slotCursor struct {
	slots []int32
	r     int
}

// row returns the index of slot in slots; slot must not be below one asked
// for before. It panics if slot has no row.
func (c *slotCursor) row(slot int) int {
	for c.r < len(c.slots) && int(c.slots[c.r]) < slot {
		c.r++
	}
	if c.r == len(c.slots) || int(c.slots[c.r]) != slot {
		panic(fmt.Sprintf("adaptive: chosen slot %d has no value or token row (a padded slot of the model's block)", slot))
	}
	return c.r
}
