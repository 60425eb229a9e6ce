package tensor

import (
	"math"
	"runtime"
	"testing"

	"taser/internal/mathx"
)

// concatCols returns the column concatenation of parts, rows×Σwidths.
func concatCols(rows int, parts []*Matrix) *Matrix {
	k := 0
	for _, x := range parts {
		k += x.Cols
	}
	c := New(rows, k)
	ConcatColsInto(c, parts...)
	return c
}

// addRowVecRef adds the row vector b to every row of m, one rounded add per
// element: the second pass of the two-pass reference for a product with a
// bias.
func addRowVecRef(m *Matrix, b []float64) {
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range b {
			row[j] += v
		}
	}
}

// biasKinds are the biases the parts checks run with: none, random, and
// all −0 (0 + −0 is +0, so a product that copied the bias instead of adding
// it would keep the sign).
const (
	noBias = iota
	randomBias
	negZeroBias
	biasKinds
)

// checkPartsMatchConcat runs the parts product and both of its gradient
// forms on operands held in canary-guarded storage and compares them bit for
// bit with the three products on the concatenation: the forward with
// MatMulInto followed by the reference row add of the bias, dParts with
// MatMulTransBAddInto into a concatenated gradient that starts as the parts'
// gradients side by side, dW with MatMulTransAInto. A part whose bit in
// nilGrads is set has no gradient, and bit 4 drops dW. The forward's dst
// starts as NaN, so an element the store pass skipped shows.
func checkPartsMatchConcat(t *testing.T, rows, cols int, widths []int, nilGrads uint8, biasKind int, seed uint64) {
	t.Helper()
	rng := mathx.NewRNG(seed)
	var intact []func() bool
	guardedOperand := func(r, c int) *Matrix {
		m, ok := guardedRandn(r, c, rng)
		intact = append(intact, ok)
		return withZeros(m, 0.2, rng)
	}
	parts, dParts := make([]*Matrix, len(widths)), make([]*Matrix, len(widths))
	k := 0
	for p, wd := range widths {
		parts[p] = guardedOperand(rows, wd)
		if nilGrads&(1<<p) == 0 {
			dParts[p] = guardedOperand(rows, wd)
		}
		k += wd
	}
	w, dO := guardedOperand(k, cols), guardedOperand(rows, cols)
	var dW *Matrix
	if nilGrads&(1<<4) == 0 {
		dW = guardedOperand(k, cols)
	}
	var bias []float64
	if biasKind != noBias {
		bias = guardedOperand(1, cols).Data
		if biasKind == negZeroBias {
			for j := range bias {
				bias[j] = math.Copysign(0, -1)
			}
		}
	}
	concat := concatCols(rows, parts)

	// The references, on the concatenation.
	wantOut := New(rows, cols)
	MatMulInto(wantOut, concat, w)
	addRowVecRef(wantOut, bias)
	start := make([]*Matrix, len(widths)) // each part's gradient before, zero for a constant
	for p, wd := range widths {
		if start[p] = dParts[p]; start[p] == nil {
			start[p] = New(rows, wd)
		}
	}
	wantDC := concatCols(rows, start)
	MatMulTransBAddInto(wantDC, dO, w)
	var wantDW *Matrix
	if dW != nil {
		wantDW = dW.Clone()
		MatMulTransAInto(wantDW, concat, dO)
	}

	out, outOK := guarded(rows * cols)
	intact = append(intact, outOK)
	for i := range out {
		out[i] = math.NaN()
	}
	got := FromSlice(rows, cols, out)
	MatMulPartsInto(got, w, parts, bias)
	MatMulPartsGradInto(dW, dParts, dO, w, parts)

	for i, ok := range intact {
		if !ok() {
			t.Fatalf("rows %d cols %d widths %v: operand %d written outside its storage", rows, cols, widths, i)
		}
	}
	if d := bitwiseDiff(got, wantOut); d >= 0 {
		t.Fatalf("rows %d cols %d widths %v bias kind %d: forward elem %d = %v, concatenation plus bias gives %v",
			rows, cols, widths, biasKind, d, got.Data[d], wantOut.Data[d])
	}
	off := 0
	for p, dx := range dParts {
		if dx != nil {
			for i := 0; i < rows; i++ {
				row, want := dx.Row(i), wantDC.Row(i)[off:off+dx.Cols]
				if j := sameBits(row, want); j >= 0 {
					t.Fatalf("rows %d cols %d widths %v: dParts[%d][%d,%d] = %v, concatenation gives %v", rows, cols, widths, p, i, j, row[j], want[j])
				}
			}
		}
		off += widths[p]
	}
	if dW != nil {
		if d := bitwiseDiff(dW, wantDW); d >= 0 {
			t.Fatalf("rows %d cols %d widths %v: dW elem %d = %v, concatenation gives %v", rows, cols, widths, d, dW.Data[d], wantDW.Data[d])
		}
	}
}

// FuzzMatMulPartsMatchesConcat holds the parts product to the products on the
// concatenation, bit for bit, forward (with no bias, a random one or an
// all −0 one) and both gradient forms: up to four parts of width 0–11, 0–9
// rows, 1–17 output columns — every tile path (whole panels, tilePart's
// shifted remainders, axpyRows under 4 rows or 8 columns, dotRows under 8
// part columns), zero-width parts leading, trailing and throughout. The
// seeds run as a plain test;
//
//	go test -run '^$' -fuzz FuzzMatMulPartsMatchesConcat ./internal/tensor
//
// explores.
func FuzzMatMulPartsMatchesConcat(f *testing.F) {
	for _, s := range []struct {
		rows, cols, n, w0, w1, w2, w3, nilGrads, bias uint8
	}{
		{0, 0, 0, 0, 0, 0, 0, 0, randomBias},      // no parts at all: dst = 0 + b
		{5, 8, 3, 0, 4, 9, 0, 0, randomBias},      // zero-width leading part
		{3, 9, 2, 11, 11, 0, 0, 0, randomBias},    // rows < 4: axpyRows
		{9, 16, 4, 3, 5, 7, 2, 0, noBias},         // every part under 8 columns: dotRows
		{9, 16, 2, 9, 11, 0, 0, 0, randomBias},    // rows%4, cols%8: tilePart
		{8, 7, 2, 8, 8, 0, 0, 0, randomBias},      // whole tiles, 8 output columns
		{7, 12, 3, 0, 0, 0, 0, 0, noBias},         // parts, but all of zero width: dst zeroed
		{6, 13, 3, 10, 1, 6, 0, 0x1a, randomBias}, // constant parts and a constant weight
		{4, 3, 1, 11, 0, 0, 0, 0x01, randomBias},  // one part: Affine's own call
		{7, 12, 3, 0, 0, 0, 0, 0, negZeroBias},    // all of zero width, −0 bias: dst = +0
		{9, 16, 4, 5, 11, 0, 0, 0, randomBias},    // zero-width trailing parts: the bias rides on part 1
		{8, 15, 2, 7, 9, 0, 0, 0, negZeroBias},    // whole panels of two blocks, −0 bias
		{5, 8, 4, 0, 3, 0, 0, 0x10, negZeroBias},  // one part with columns between zero-width ones
	} {
		f.Add(s.rows, s.cols, s.n, s.w0, s.w1, s.w2, s.w3, s.nilGrads, s.bias, uint64(s.rows)*131+uint64(s.w0))
	}
	f.Fuzz(func(t *testing.T, rows, cols, n, w0, w1, w2, w3, nilGrads, bias uint8, seed uint64) {
		widths := []int{int(w0) % 12, int(w1) % 12, int(w2) % 12, int(w3) % 12}[:int(n)%5]
		checkPartsMatchConcat(t, int(rows)%10, 1+int(cols)%17, widths, nilGrads, int(bias)%biasKinds, seed)
	})
}

// TestMatMulPartsParallelMatchesConcat is the fuzz target's check on shapes
// the fuzzer's ranges do not reach: the train-taser-tgat message projection
// and its remainder-heavy neighbours, with a bias.
func TestMatMulPartsParallelMatchesConcat(t *testing.T) {
	checkPartsMatchConcat(t, 733, 24, []int{24, 32, 16}, 0, randomBias, 1)
	checkPartsMatchConcat(t, 1001, 27, []int{0, 45, 3, 19}, 0x04, randomBias, 2)
	checkPartsMatchConcat(t, 550, 24, []int{0, 32, 16}, 0, negZeroBias, 3)
}

// TestMatMulPartsSteadyStateAllocFree pins that the row-block views the parts
// products multiply against stay on the stack and that no product starts a
// goroutine: a warm forward with a bias and backward over three parts
// allocates nothing, at any GOMAXPROCS — also on the train-taser-tgat
// message projection (733 rows, 1.27M multiply-adds per product) at four.
func TestMatMulPartsSteadyStateAllocFree(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, c := range []struct {
		rows   int
		widths []int
		cols   int
		procs  int // 0: as the test runs
	}{
		{40, []int{24, 5, 16}, 24, 0},
		{733, []int{24, 32, 16}, 24, 4},
	} {
		runtime.GOMAXPROCS(c.procs)
		rng := mathx.NewRNG(34)
		parts := make([]*Matrix, len(c.widths))
		dParts := make([]*Matrix, len(c.widths))
		k := 0
		for i, wd := range c.widths {
			parts[i] = Randn(c.rows, wd, 1, rng)
			if i != 1 { // one part is a constant, with no gradient
				dParts[i] = New(c.rows, wd)
			}
			k += wd
		}
		w, dW, bias := Randn(k, c.cols, 1, rng), New(k, c.cols), Randn(1, c.cols, 1, rng).Data
		out, dO := New(c.rows, c.cols), Randn(c.rows, c.cols, 1, rng)
		pass := func() {
			MatMulPartsInto(out, w, parts, bias)
			MatMulPartsGradInto(dW, dParts, dO, w, parts)
		}
		pass() // warm the transpose free list
		if allocs := allocsAtGOMAXPROCS(50, pass); allocs != 0 {
			t.Fatalf("%d rows, widths %v, GOMAXPROCS=%d: warm parts forward and backward allocate %d times per call, want 0",
				c.rows, c.widths, runtime.GOMAXPROCS(0), allocs)
		}
	}
}
