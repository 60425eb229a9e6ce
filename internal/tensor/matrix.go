// Package tensor implements dense float64 matrices and the compute kernels
// the TGNN stack is built on: parallel matrix multiply, row softmax, layer
// normalization, and grouped (per-neighborhood) operations.
//
// Matrices are row-major. Kernels never retain their arguments and always
// write into caller-owned destinations when the name ends in "Into";
// otherwise they allocate.
package tensor

import (
	"fmt"
	"math"

	"taser/internal/mathx"
)

// Matrix is a dense row-major float64 matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// New returns a zeroed r×c matrix.
func New(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("tensor: New(%d, %d) with negative dimension", r, c))
	}
	return &Matrix{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// FromSlice wraps data (not copied) as an r×c matrix.
func FromSlice(r, c int, data []float64) *Matrix {
	if len(data) != r*c {
		panic(fmt.Sprintf("tensor: FromSlice(%d, %d) with %d elements", r, c, len(data)))
	}
	return &Matrix{Rows: r, Cols: c, Data: data}
}

// Randn fills a new r×c matrix with N(0, std²) entries.
func Randn(r, c int, std float64, rng *mathx.RNG) *Matrix {
	m := New(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64() * std
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set stores v at (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view (no copy) of row i.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// SliceRows returns a view (no copy) of the first n rows.
func (m *Matrix) SliceRows(n int) *Matrix {
	if n < 0 || n > m.Rows {
		panic(fmt.Sprintf("tensor: SliceRows(%d) of %dx%d matrix", n, m.Rows, m.Cols))
	}
	return FromSlice(n, m.Cols, m.Data[:n*m.Cols])
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := New(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Resize reshapes m to r×c in place and zeroes every element, reusing the
// backing array when its capacity suffices. After Resize the matrix is
// indistinguishable from a fresh New(r, c); buffer pools use it to recycle
// matrices across training steps without reallocating.
//
// The zero-fill is a contract, not an optimization detail: recycled buffers
// hold a previous use's data, and every consumer of a resized matrix — a
// timespan column SetEntry writes slot by slot, whose padding must read
// zero — assumes a fresh-New state. This includes the region beyond the previous length when a
// matrix grows within its capacity: Go reslicing does NOT clear it, so Resize
// must (TestResizeZeroFillsGrownRegion pins this).
func (m *Matrix) Resize(r, c int) *Matrix {
	m.reshape("Resize", r, c)
	clear(m.Data)
	return m
}

// ResizeUninit is Resize without the zero-fill, for a pooled buffer whose
// every element its next user writes before anything reads one (a feature
// matrix a slice overwrites row by row): the contents are whatever the
// previous use left. Under TASER_ARENA_POISON they are NaN, as
// Arena.GetUninit hands its regions out, so an element the writer misses
// surfaces as NaN instead of as stale data.
func (m *Matrix) ResizeUninit(r, c int) *Matrix {
	m.reshape("ResizeUninit", r, c)
	if poisonRequested() {
		fillNaN(m.Data)
	}
	return m
}

// reshape makes m r×c over its backing array when the capacity suffices, a
// new one otherwise, without touching the elements.
func (m *Matrix) reshape(op string, r, c int) {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("tensor: %s(%d, %d) with negative dimension", op, r, c))
	}
	if n := r * c; cap(m.Data) < n {
		m.Data = make([]float64, n)
	} else {
		m.Data = m.Data[:n]
	}
	m.Rows, m.Cols = r, c
}

// Zero sets every element to 0.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Fill sets every element to v.
func (m *Matrix) Fill(v float64) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// SameShape reports whether m and o have identical dimensions.
func (m *Matrix) SameShape(o *Matrix) bool {
	return m.Rows == o.Rows && m.Cols == o.Cols
}

func (m *Matrix) shapeCheck(o *Matrix, op string) {
	if !m.SameShape(o) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %dx%d vs %dx%d", op, m.Rows, m.Cols, o.Rows, o.Cols))
	}
}

// SameShapeOrPanic panics with the operation name if shapes differ.
func (m *Matrix) SameShapeOrPanic(o *Matrix, op string) { m.shapeCheck(o, op) }

// AddInto, SubInto, MulInto and ScaleInto write a op b (or a·s) into dst in
// one pass over the operands. dst may alias a or b: AddInto(m, m, o) is the
// in-place m += o a gradient accumulates with.

// AddInto writes a + b into dst.
func AddInto(dst, a, b *Matrix) {
	checkBinary(dst, a, b, "AddInto")
	av := a.Data
	bv, out := b.Data[:len(av)], dst.Data[:len(av)] // hoists the loop's bounds checks
	for i, v := range av {
		out[i] = v + bv[i]
	}
}

// SubInto writes a - b into dst.
func SubInto(dst, a, b *Matrix) {
	checkBinary(dst, a, b, "SubInto")
	av := a.Data
	bv, out := b.Data[:len(av)], dst.Data[:len(av)] // hoists the loop's bounds checks
	for i, v := range av {
		out[i] = v - bv[i]
	}
}

// MulInto writes the Hadamard product a ⊙ b into dst.
func MulInto(dst, a, b *Matrix) {
	checkBinary(dst, a, b, "MulInto")
	av := a.Data
	bv, out := b.Data[:len(av)], dst.Data[:len(av)] // hoists the loop's bounds checks
	for i, v := range av {
		out[i] = v * bv[i]
	}
}

// ScaleInto writes s·a into dst.
func ScaleInto(dst, a *Matrix, s float64) {
	a.shapeCheck(dst, "ScaleInto")
	out := dst.Data[:len(a.Data)] // hoists the loop's bounds check
	for i, v := range a.Data {
		out[i] = v * s
	}
}

// checkBinary panics unless dst, a and b share a shape.
func checkBinary(dst, a, b *Matrix, op string) {
	a.shapeCheck(b, op)
	a.shapeCheck(dst, op)
}

// ScaleInPlace multiplies every element by s.
func (m *Matrix) ScaleInPlace(s float64) {
	for i := range m.Data {
		m.Data[i] *= s
	}
}

// AxpyInPlace computes m += alpha*o.
func (m *Matrix) AxpyInPlace(alpha float64, o *Matrix) {
	m.shapeCheck(o, "AxpyInPlace")
	for i, v := range o.Data {
		m.Data[i] += alpha * v
	}
}

// AddRowSumsInto adds every row of src onto the 1×C row vector dst, rows
// ascending: the adjoint of MatMulPartsInto's bias, the bias gradient of a
// linear layer.
func AddRowSumsInto(dst, src *Matrix) {
	if dst.Rows != 1 || dst.Cols != src.Cols {
		panic(fmt.Sprintf("tensor: AddRowSumsInto %dx%d sums into %dx%d", src.Rows, src.Cols, dst.Rows, dst.Cols))
	}
	d := dst.Data
	for i := 0; i < src.Rows; i++ {
		row := src.Row(i)[:len(d)] // hoists row[j]'s bounds check out of the loop
		for j := range d {
			d[j] += row[j]
		}
	}
}

// Sum returns the sum of all elements.
func (m *Matrix) Sum() float64 {
	var s float64
	for _, v := range m.Data {
		s += v
	}
	return s
}

// MaxAbs returns max |element|; useful in tests.
func (m *Matrix) MaxAbs() float64 {
	var s float64
	for _, v := range m.Data {
		if a := math.Abs(v); a > s {
			s = a
		}
	}
	return s
}

// Equal reports element-wise equality within tol.
func (m *Matrix) Equal(o *Matrix, tol float64) bool {
	if !m.SameShape(o) {
		return false
	}
	for i, v := range m.Data {
		if math.Abs(v-o.Data[i]) > tol {
			return false
		}
	}
	return true
}

// String renders small matrices for debugging.
func (m *Matrix) String() string {
	s := fmt.Sprintf("Matrix %dx%d", m.Rows, m.Cols)
	if m.Rows*m.Cols <= 64 {
		s += " ["
		for i := 0; i < m.Rows; i++ {
			s += fmt.Sprintf("%v", m.Row(i))
		}
		s += "]"
	}
	return s
}
