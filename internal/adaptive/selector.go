// Package adaptive implements TASER's two-fold temporal adaptive sampling:
// mini-batch selection driven by training dynamics (§III-A) and neighbor
// sampling via a parameterized encoder–decoder co-trained with the TGNN
// through a REINFORCE-style sample loss (§III-B, Eqs. 14–26).
package adaptive

import (
	"fmt"

	"taser/internal/mathx"
)

// MiniBatchSelector maintains the per-training-edge importance scores P
// (Eq. 11) and draws batches with probability proportional to P. Scores are
// initialized uniformly; after each forward pass, the positive samples in
// the batch are re-scored with sigmoid(logit) + γ, so confidently predicted
// (low-noise) interactions are revisited more while a γ-weighted uniform
// floor preserves exploration.
//
// The training loop draws each batch after the previous step's Update, so
// every draw sees current scores (DESIGN.md §8). A selector is
// single-goroutine state.
type MiniBatchSelector struct {
	scores []float64
	rng    *mathx.RNG
	ws     mathx.WeightedSampler // draw scratch
}

// Gamma is Eq. 11's uniform-mixture magnitude γ, at the paper's value.
const Gamma = 0.1

// NewMiniBatchSelector builds a selector over numTrain training edges.
func NewMiniBatchSelector(numTrain int, rng *mathx.RNG) *MiniBatchSelector {
	if numTrain <= 0 {
		panic(fmt.Sprintf("adaptive: selector over %d edges", numTrain))
	}
	s := &MiniBatchSelector{scores: make([]float64, numTrain), rng: rng}
	for i := range s.scores {
		s.scores[i] = 1 // uniform initialization
	}
	return s
}

// Len returns the training-set size.
func (s *MiniBatchSelector) Len() int { return len(s.scores) }

// Score returns P(e) for a training edge (exported for tests/diagnostics).
func (s *MiniBatchSelector) Score(e int) float64 {
	return s.scores[e]
}

// SampleBatchInto draws batchSize distinct training-edge indices with
// probability proportional to the importance scores, into out's backing
// array (nil allocates). It keeps the per-step selection path
// allocation-free: the O(numTrain) key/index scratch is reused across calls
// and only the result occupies out.
func (s *MiniBatchSelector) SampleBatchInto(batchSize int, out []int) []int {
	return s.ws.SampleInto(s.rng, s.scores, batchSize, out)
}

// Update re-scores the positive samples of a batch with their fresh logits
// (Eq. 11): P(e) = sigmoid(ŷ_e) + γ.
func (s *MiniBatchSelector) Update(edges []int, logits []float64) {
	if len(edges) != len(logits) {
		panic("adaptive: Update length mismatch")
	}
	for i, e := range edges {
		s.scores[e] = mathx.Sigmoid(logits[i]) + Gamma
	}
}
