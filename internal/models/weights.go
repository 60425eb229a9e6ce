package models

import (
	"fmt"

	"taser/internal/mathx"
	"taser/internal/nn"
	"taser/internal/tensor"
)

// WeightSet is one immutable, versioned snapshot of a model's parameters:
// the flat Params() tensors of a (TGNN, EdgePredictor) pair — or any other
// module list — deep-copied at capture time. A WeightSet is never mutated
// after CaptureWeights returns, so any number of goroutines may share one;
// the online fine-tuner publishes them into the serving engine through an
// atomic pointer, and the serving scheduler applies them between
// micro-batches (serve.Engine.PublishWeights, DESIGN.md §10).
type WeightSet struct {
	Version uint64
	Params  []*tensor.Matrix
}

// CaptureWeights deep-copies the current parameter values of mods into a
// fresh WeightSet tagged with version. Capture order follows the modules'
// Params() order, which is deterministic per architecture — LoadInto relies
// on the same ordering on the receiving side.
func CaptureWeights(version uint64, mods ...nn.Module) *WeightSet {
	w := &WeightSet{Version: version}
	for _, m := range mods {
		for _, p := range m.Params() {
			w.Params = append(w.Params, p.Val.Clone())
		}
	}
	return w
}

// LoadInto copies the snapshot's values into the parameters of mods
// (gradients are untouched). The module list must present the same
// parameter count and shapes the set was captured from.
func (w *WeightSet) LoadInto(mods ...nn.Module) error {
	i := 0
	for _, m := range mods {
		for _, p := range m.Params() {
			if i >= len(w.Params) {
				return fmt.Errorf("models: weight set v%d has %d tensors, modules expect more", w.Version, len(w.Params))
			}
			src := p.Val
			if !src.SameShape(w.Params[i]) {
				return fmt.Errorf("models: weight set v%d tensor %d is %dx%d, parameter is %dx%d",
					w.Version, i, w.Params[i].Rows, w.Params[i].Cols, src.Rows, src.Cols)
			}
			copy(src.Data, w.Params[i].Data)
			i++
		}
	}
	if i != len(w.Params) {
		return fmt.Errorf("models: weight set v%d has %d tensors, modules consumed %d", w.Version, len(w.Params), i)
	}
	return nil
}

// Matches reports whether the snapshot is shape-compatible with mods,
// without writing anything — the cheap validation an engine runs at
// publication time before accepting a set for a later swap.
func (w *WeightSet) Matches(mods ...nn.Module) error {
	i := 0
	for _, m := range mods {
		for _, p := range m.Params() {
			if i >= len(w.Params) || !p.Val.SameShape(w.Params[i]) {
				return fmt.Errorf("models: weight set v%d does not match module parameters at tensor %d", w.Version, i)
			}
			i++
		}
	}
	if i != len(w.Params) {
		return fmt.Errorf("models: weight set v%d carries %d extra tensors", w.Version, len(w.Params)-i)
	}
	return nil
}

// copyParams copies src's parameter values into dst's, panicking on any
// architecture mismatch (clones of the same config can never mismatch).
func copyParams(dst, src nn.Module) {
	dp, sp := dst.Params(), src.Params()
	if len(dp) != len(sp) {
		panic(fmt.Sprintf("models: clone has %d params, source %d", len(dp), len(sp)))
	}
	for i := range dp {
		dp[i].Val.SameShapeOrPanic(sp[i].Val, "clone")
		copy(dp[i].Val.Data, sp[i].Val.Data)
	}
}

// Clone returns an independent deep copy of the model: same architecture,
// same current parameter values, fresh gradient storage. Implements TGNN.
func (m *TGAT) Clone() TGNN {
	c := NewTGAT(m.cfg, mathx.NewRNG(1))
	copyParams(c, m)
	return c
}

// Clone returns an independent deep copy of the model. Implements TGNN.
func (m *GraphMixer) Clone() TGNN {
	c := NewGraphMixer(m.cfg, mathx.NewRNG(1))
	copyParams(c, m)
	return c
}

// Clone returns an independent deep copy of the decoder.
func (p *EdgePredictor) Clone() *EdgePredictor {
	c := NewEdgePredictor(p.dim, mathx.NewRNG(1))
	copyParams(c, p)
	return c
}
