package autograd

import (
	"math"
	"testing"

	"taser/internal/mathx"
	"taser/internal/tensor"
)

// FuzzGroupedSlots holds every slot op to its dense form. For b
// neighborhoods of k slots, width d and an ascending subset of named slots,
// GroupedScore, GroupedWeightedSum and GroupMean on the compact operand (one
// row per named slot) must equal, by Float64bits, the call naming every slot
// on the zero-padded layout (those rows at their slots, +0 rows elsewhere):
// values, the dense operands' gradients, and the compact rows' gradients
// against the padded gradient's rows at their slots. SoftmaxSlots and
// LogSoftmaxSlots on b×k logits must equal, value and input gradient, the
// call naming every slot on the logits with −1e9 at the unnamed slots
// (followed, for the softmax, by the ×mask step) at the named slots, and
// be +0 at the others. fill/255 is the share of slots named (0: V = 0; 255:
// every slot; anything else leaves neighborhood 0 empty), zeros/256 the
// share of values that are ±0. The seeds run with go test; on demand
// go test -run '^$' -fuzz FuzzGroupedSlots -fuzztime 30s ./internal/autograd.
func FuzzGroupedSlots(f *testing.F) {
	for _, s := range []struct{ b, k, d, fill, zeros uint8 }{
		{3, 4, 5, 128, 0},   // a partial fill, a four-row pass and a tail
		{3, 4, 5, 0, 0},     // V = 0: every slot padding
		{3, 4, 5, 255, 0},   // every slot named: the dense form itself
		{6, 10, 24, 138, 0}, // serve-cold's n and d at its fill, 0.54
		{5, 1, 3, 100, 60},  // one slot per neighborhood, ±0 values
		{0, 3, 2, 128, 0},   // no neighborhoods
		{2, 7, 0, 128, 0},   // zero-width rows
		{6, 5, 4, 60, 200},  // sparse, mostly ±0
		{4, 9, 7, 230, 30},  // nearly full, some ±0
		{7, 6, 2, 45, 128},  // rows of six with one named slot or none, half the values ±0
	} {
		f.Add(s.b, s.k, s.d, s.fill, s.zeros, uint64(s.b)*97+uint64(s.k)*13+uint64(s.fill))
	}
	f.Fuzz(func(t *testing.T, b, k, d, fill, zeros uint8, seed uint64) {
		checkGroupedSlots(t, int(b)%8, 1+int(k)%12, int(d)%26, fill, zeros, seed)
	})
}

func checkGroupedSlots(t *testing.T, b, k, d int, fill, zeros uint8, seed uint64) {
	rng := mathx.NewRNG(seed)
	value := func() float64 {
		switch {
		case rng.Intn(256) >= int(zeros):
			return rng.NormFloat64()
		case rng.Intn(2) == 0:
			return 0
		}
		return math.Copysign(0, -1)
	}
	matrix := func(r, c int) *tensor.Matrix {
		m := tensor.New(r, c)
		for i := range m.Data {
			m.Data[i] = value()
		}
		return m
	}
	var slots []int32
	every := make([]int32, b*k)
	for s := range every {
		every[s] = int32(s)
		if fill == 255 || s >= k && rng.Intn(255) < int(fill) {
			slots = append(slots, int32(s))
		}
	}
	// Op outputs come out of a poisoned arena: an element an op leaves
	// unwritten reads NaN.
	poisoned := func() *Graph {
		g := NewReusable()
		g.Arena().SetPoison(true)
		return g
	}
	// pad lays compact rows out at their slots over +0 rows.
	pad := func(m *tensor.Matrix) *tensor.Matrix {
		p := tensor.New(b*k, m.Cols)
		for r, s := range slots {
			copy(p.Row(int(s)), m.Row(r))
		}
		return p
	}
	v := len(slots)
	q, keys, w, vals, x := matrix(b, d), matrix(v, d), matrix(b, k), matrix(v, d), matrix(v, d)
	dScore, dSum, dMean := matrix(b, k), matrix(b, d), matrix(b, d)

	// run returns the three outputs, then the gradients of q, w, keys, vals
	// and x — the last three read at the named rows when padded.
	run := func(padded bool) (got []*tensor.Matrix) {
		ps := []*Var{NewParam(q.Clone()), NewParam(w.Clone()), NewParam(keys.Clone()), NewParam(vals.Clone()), NewParam(x.Clone())}
		idx := slots
		if padded {
			idx = every
			for _, p := range ps[2:] {
				p.Val, p.Grad = pad(p.Val), tensor.New(b*k, p.Val.Cols)
			}
		}
		g := poisoned()
		score := g.GroupedScore(ps[0], ps[2], idx, k)
		sum := g.GroupedWeightedSum(ps[1], ps[3], idx, k)
		mean := g.GroupMean(ps[4], idx, b, k)
		g.Backward(g.Add(g.Add(g.WeightedSumConst(score, dScore), g.WeightedSumConst(sum, dSum)), g.WeightedSumConst(mean, dMean)))
		got = append(got, score.Val, sum.Val, mean.Val, ps[0].Grad, ps[1].Grad)
		for _, p := range ps[2:] {
			grad := p.Grad
			if padded {
				grad = tensor.New(v, p.Val.Cols)
				tensor.GatherRowsInto(grad, p.Grad, slots)
			}
			got = append(got, grad)
		}
		return got
	}
	names := []string{"GroupedScore", "GroupedWeightedSum", "GroupMean", "dq", "dw", "dkeys", "dvals", "dx"}
	want, got := run(true), run(false)
	for i, name := range names {
		if got[i].Rows != want[i].Rows || got[i].Cols != want[i].Cols {
			t.Fatalf("b=%d k=%d d=%d V=%d: %s is %dx%d, every-slot call %dx%d", b, k, d, v, name,
				got[i].Rows, got[i].Cols, want[i].Rows, want[i].Cols)
		}
		for j, gv := range got[i].Data {
			if wv := want[i].Data[j]; math.Float64bits(gv) != math.Float64bits(wv) {
				t.Fatalf("b=%d k=%d d=%d slots %v: %s[%d] = %v (%#x), every-slot call %v (%#x)",
					b, k, d, slots, name, j, gv, math.Float64bits(gv), wv, math.Float64bits(wv))
			}
		}
	}

	// The softmaxes: the slot form's unnamed logits are junk it must not
	// read. The padded call holds −1e9 there, and its log-softmax
	// coefficients there are 0, as REINFORCE's are on padded slots.
	logits, dSoft, dLog := matrix(b, k), matrix(b, k), matrix(b, k)
	named := make([]bool, b*k)
	for _, s := range slots {
		named[s] = true
	}
	mask, biased, dLogNamed := tensor.New(b, k), logits.Clone(), dLog.Clone()
	for s, ok := range named {
		if ok {
			mask.Data[s] = 1
		} else {
			biased.Data[s], dLogNamed.Data[s] = -1e9, 0
		}
	}
	softmaxes := func(padded bool) []*tensor.Matrix {
		in, idx, dl := logits, slots, dLog
		if padded {
			in, idx, dl = biased, every, dLogNamed
		}
		a, la := NewParam(in.Clone()), NewParam(in.Clone())
		g := poisoned()
		soft, logSoft := g.SoftmaxSlots(a, idx), g.LogSoftmaxSlots(la, idx)
		if padded {
			soft = g.Mul(soft, g.Const(mask))
		}
		g.Backward(g.Add(g.WeightedSumConst(soft, dSoft), g.WeightedSumConst(logSoft, dl)))
		return []*tensor.Matrix{soft.Val, logSoft.Val, a.Grad, la.Grad}
	}
	want, got = softmaxes(true), softmaxes(false)
	for i, name := range []string{"SoftmaxSlots", "LogSoftmaxSlots", "softmax input gradient", "log-softmax input gradient"} {
		for s, gv := range got[i].Data {
			wv := want[i].Data[s]
			if !named[s] {
				wv = 0 // written +0, and never sent a gradient
			}
			if math.Float64bits(gv) != math.Float64bits(wv) {
				t.Fatalf("b=%d k=%d slots %v: %s[%d] = %v (%#x), want %v (%#x)",
					b, k, slots, name, s, gv, math.Float64bits(gv), wv, math.Float64bits(wv))
			}
		}
	}
}
