package nn

import (
	"math"

	"taser/internal/autograd"
	"taser/internal/tensor"
)

// Adam implements the Adam optimizer (Kingma & Ba) with optional gradient
// clipping by global norm. The paper trains both the TGNN and the adaptive
// sampler with Adam; the stabilizing effect of its moment estimates is what
// lets TASER's historical cache policy converge (§III-D).
type Adam struct {
	LR       float64
	Beta1    float64
	Beta2    float64
	Eps      float64
	ClipNorm float64 // 0 disables clipping

	params []*autograd.Var
	m, v   []*tensor.Matrix
	step   int
}

// NewAdam builds an optimizer over params with standard defaults.
func NewAdam(params []*autograd.Var, lr float64) *Adam {
	a := &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, params: params}
	a.m = make([]*tensor.Matrix, len(params))
	a.v = make([]*tensor.Matrix, len(params))
	for i, p := range params {
		a.m[i] = tensor.New(p.Val.Rows, p.Val.Cols)
		a.v[i] = tensor.New(p.Val.Rows, p.Val.Cols)
	}
	return a
}

// GradNorm returns the global L2 norm of all parameter gradients.
func (a *Adam) GradNorm() float64 {
	var ss float64
	for _, p := range a.params {
		for _, g := range p.Grad.Data {
			ss += g * g
		}
	}
	return math.Sqrt(ss)
}

// Step applies one Adam update using the currently accumulated gradients.
func (a *Adam) Step() {
	a.step++
	scale := 1.0
	if a.ClipNorm > 0 {
		if n := a.GradNorm(); n > a.ClipNorm {
			scale = a.ClipNorm / (n + 1e-12)
		}
	}
	bc1 := 1 - math.Pow(a.Beta1, float64(a.step))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.step))
	for i, p := range a.params {
		m, v := a.m[i], a.v[i]
		for j, g := range p.Grad.Data {
			g *= scale
			m.Data[j] = a.Beta1*m.Data[j] + (1-a.Beta1)*g
			v.Data[j] = a.Beta2*v.Data[j] + (1-a.Beta2)*g*g
			mh := m.Data[j] / bc1
			vh := v.Data[j] / bc2
			p.Val.Data[j] -= a.LR * mh / (math.Sqrt(vh) + a.Eps)
		}
	}
}

// ZeroGrad clears all parameter gradients; call after Step.
func (a *Adam) ZeroGrad() {
	for _, p := range a.params {
		p.Grad.Zero()
	}
}
