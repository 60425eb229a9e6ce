package tensor

import (
	"math"
	"testing"
	"testing/quick"

	"taser/internal/mathx"
)

func TestNewZeroed(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("bad shape: %v", m)
	}
	for _, v := range m.Data {
		if v != 0 {
			t.Fatal("New must zero data")
		}
	}
}

func TestFromSlicePanicsOnBadLen(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromSlice(2, 2, []float64{1, 2, 3})
}

func TestAtSetRow(t *testing.T) {
	m := New(2, 3)
	m.Set(1, 2, 7)
	if m.At(1, 2) != 7 {
		t.Fatal("At/Set roundtrip")
	}
	row := m.Row(1)
	row[0] = 5
	if m.At(1, 0) != 5 {
		t.Fatal("Row must be a view")
	}
}

func TestCloneIndependent(t *testing.T) {
	a := FromSlice(1, 2, []float64{1, 2})
	b := a.Clone()
	b.Data[0] = 9
	if a.Data[0] != 1 {
		t.Fatal("Clone must deep-copy")
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice(2, 2, []float64{1, 2, 3, 4})
	b := FromSlice(2, 2, []float64{10, 20, 30, 40})
	dst := New(2, 2)
	// In sequence: each case reads a as the cases before it left it.
	for _, op := range []struct {
		name string
		run  func()
		out  *Matrix
		want []float64
	}{
		{"AddInto", func() { AddInto(dst, a, b) }, dst, []float64{11, 22, 33, 44}},
		{"AddInto in place", func() { AddInto(a, a, b) }, a, []float64{11, 22, 33, 44}},
		{"ScaleInPlace", func() { a.ScaleInPlace(0.5) }, a, []float64{5.5, 11, 16.5, 22}},
	} {
		op.run()
		for i, w := range op.want {
			if op.out.Data[i] != w {
				t.Fatalf("%s[%d] = %v, want %v", op.name, i, op.out.Data[i], w)
			}
		}
	}
}

// TestAddRowVec pins the bias a linear layer's product lands in its store:
// with no part of any width the product is 0 + b on every row (the +0 of
// 0 + −0 included), and over a product it is the product, then the row add.
func TestAddRowVec(t *testing.T) {
	m := New(2, 3)
	bias := []float64{1, 2, math.Copysign(0, -1)}
	MatMulPartsInto(m, New(0, 3), nil, bias)
	for i := 0; i < 2; i++ {
		for j, want := range []float64{1, 2, 0} {
			if math.Float64bits(m.At(i, j)) != math.Float64bits(want) {
				t.Fatalf("bias broadcast at (%d,%d): %v", i, j, m.At(i, j))
			}
		}
	}
	rng := mathx.NewRNG(7)
	for _, s := range [][3]int{{2, 5, 3}, {9, 7, 19}, {12, 24, 24}} {
		r, k, c := s[0], s[1], s[2]
		x, w, b := Randn(r, k, 1, rng), Randn(k, c, 1, rng), Randn(1, c, 1, rng)
		got, want := New(r, c), New(r, c)
		MatMulPartsInto(got, w, []*Matrix{x}, b.Data)
		MatMulInto(want, x, w)
		addRowVecRef(want, b.Data)
		if d := bitwiseDiff(got, want); d >= 0 {
			t.Fatalf("%dx%dx%d: elem %d = %v, product then row add gives %v", r, k, c, d, got.Data[d], want.Data[d])
		}
	}
}

// transpose returns mᵀ: the reference the transposed-operand products are
// checked against.
func transpose(m *Matrix) *Matrix {
	out := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j, v := range m.Row(i) {
			out.Data[j*m.Rows+i] = v
		}
	}
	return out
}

func TestMatMulIdentity(t *testing.T) {
	rng := mathx.NewRNG(2)
	a := Randn(4, 4, 1, rng)
	id := New(4, 4)
	for i := 0; i < 4; i++ {
		id.Set(i, i, 1)
	}
	right, left := New(4, 4), New(4, 4)
	MatMulInto(right, a, id)
	MatMulInto(left, id, a)
	if !right.Equal(a, 1e-12) || !left.Equal(a, 1e-12) {
		t.Fatal("identity multiply must be a no-op")
	}
}

func TestMatMulKnown(t *testing.T) {
	a := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := FromSlice(3, 2, []float64{7, 8, 9, 10, 11, 12})
	got := New(2, 2)
	MatMulInto(got, a, b)
	want := FromSlice(2, 2, []float64{58, 64, 139, 154})
	if !got.Equal(want, 1e-12) {
		t.Fatalf("got %v", got)
	}
}

// matMulNaive is an independent reference implementation for property tests.
func matMulNaive(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

func TestMatMulMatchesNaiveProperty(t *testing.T) {
	rng := mathx.NewRNG(3)
	err := quick.Check(func(seed uint64) bool {
		r := 1 + int(seed%11)
		k := 1 + int((seed>>8)%13)
		c := 1 + int((seed>>16)%11)
		a := Randn(r, k, 1, rng)
		b := Randn(k, c, 1, rng)
		got := New(r, c)
		MatMulInto(got, a, b)
		return got.Equal(matMulNaive(a, b), 1e-9)
	}, &quick.Config{MaxCount: 40})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMatMulParallelMatchesSerial(t *testing.T) {
	rng := mathx.NewRNG(4)
	// 786k multiply-adds, on one goroutine like every product.
	a := Randn(128, 64, 1, rng)
	b := Randn(64, 96, 1, rng)
	got := New(128, 96)
	MatMulInto(got, a, b)
	want := New(128, 96)
	matMulRef(want, a, b)
	if d := bitwiseDiff(got, want); d >= 0 {
		t.Fatalf("tiled and reference matmul differ at elem %d", d)
	}
}

func TestMatMulTransB(t *testing.T) {
	rng := mathx.NewRNG(5)
	a := Randn(5, 7, 1, rng)
	b := Randn(6, 7, 1, rng)
	got, want := New(5, 6), New(5, 6)
	MatMulTransBAddInto(got, a, b)
	MatMulInto(want, a, transpose(b))
	if !got.Equal(want, 1e-10) {
		t.Fatal("a @ bᵀ mismatch")
	}
}

func TestMatMulTransAAccumulates(t *testing.T) {
	rng := mathx.NewRNG(6)
	a := Randn(5, 3, 1, rng)
	b := Randn(5, 4, 1, rng)
	dst := New(3, 4)
	dst.Fill(1)
	MatMulTransAInto(dst, a, b)
	want := New(3, 4)
	MatMulInto(want, transpose(a), b)
	ones := New(3, 4)
	ones.Fill(1)
	AddInto(want, want, ones)
	if !dst.Equal(want, 1e-10) {
		t.Fatal("MatMulTransAInto must accumulate into dst")
	}
}

func TestMatMulShapePanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected shape panic")
		}
	}()
	MatMulInto(New(2, 3), New(2, 3), New(2, 3))
}

func TestMaxAbs(t *testing.T) {
	m := FromSlice(1, 4, []float64{1, -5, 3, 0})
	if m.MaxAbs() != 5 {
		t.Fatal("MaxAbs")
	}
}

func TestEqualTolerance(t *testing.T) {
	a := FromSlice(1, 1, []float64{1.0})
	b := FromSlice(1, 1, []float64{1.0 + 1e-9})
	if !a.Equal(b, 1e-8) || a.Equal(b, 1e-10) {
		t.Fatal("Equal tolerance semantics")
	}
	c := New(2, 1)
	if a.Equal(c, 1) {
		t.Fatal("shape mismatch must be unequal")
	}
}

func TestRandnStats(t *testing.T) {
	rng := mathx.NewRNG(7)
	m := Randn(100, 100, 2, rng)
	var mean float64
	for _, v := range m.Data {
		mean += v
	}
	mean /= float64(len(m.Data))
	if math.Abs(mean) > 0.1 {
		t.Fatalf("Randn mean %v too far from 0", mean)
	}
	var variance float64
	for _, v := range m.Data {
		variance += (v - mean) * (v - mean)
	}
	variance /= float64(len(m.Data))
	if math.Abs(variance-4) > 0.3 {
		t.Fatalf("Randn var %v want ~4", variance)
	}
}
