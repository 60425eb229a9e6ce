package tensor

import (
	"fmt"
	"runtime"
	"sync"
)

// parallelThreshold is the number of multiply-adds below which MatMul stays
// single-threaded; goroutine fan-out costs more than it saves on tiny inputs.
const parallelThreshold = 1 << 16

// smallThreshold is the number of multiply-adds below which MatMulInto runs
// the plain one-row ikj loop: for tiny products the 4-row lane kernel's
// setup and remainder handling cost more than they save. Every dispatch
// target accumulates k-ascending per element, so the cutover is invisible
// to callers (bitwise, when K fits one panel — see matmul_blocked.go).
const smallThreshold = 1 << 12

// workerLimit reports the scheduler width for parallel kernels. It is read
// at call time — not frozen at package init — so runtime.GOMAXPROCS changes
// (tests pinning to 1, operators resizing a cgroup) take effect on the next
// kernel invocation. GOMAXPROCS(0) is a cheap read; callers on a hot path
// read it once per kernel call, never per row.
func workerLimit() int { return runtime.GOMAXPROCS(0) }

// MatMulInto computes dst = a @ b. dst must be pre-shaped a.Rows×b.Cols and
// must not alias a or b. Large products run the cache-blocked packed-panel
// kernel (matmul_blocked.go) and are split across worker goroutines by row
// block; each worker owns a disjoint range of dst rows.
//
// The dense path carries no zero-skip branch: every a element is multiplied
// through, which keeps the inner loop branch-free and lets products with
// exact-zero operands follow IEEE semantics (0·Inf = NaN propagates instead
// of being skipped). The models do not hand it mask-zeroed rows to skip:
// they multiply valid neighbor rows only.
func MatMulInto(dst, a, b *Matrix) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMul %dx%d @ %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulInto dst %dx%d want %dx%d", dst.Rows, dst.Cols, a.Rows, b.Cols))
	}
	work := a.Rows * a.Cols * b.Cols
	if work < smallThreshold {
		matMulSmallRange(dst, a, b, 0, a.Rows)
		return
	}
	// Pick the kernel by B's footprint: while B stays cache-resident the
	// unpacked 4-row kernel wins; past blockedMinElems the packed panels pay
	// for themselves. All model shapes in this repo take the dense path.
	if b.Rows*b.Cols >= blockedMinElems {
		if work < parallelThreshold || workerLimit() == 1 {
			matMulBlockedRange(dst, a, b, 0, a.Rows)
			return
		}
		parallelRows(a.Rows, func(lo, hi int) { matMulBlockedRange(dst, a, b, lo, hi) })
		return
	}
	if work < parallelThreshold || workerLimit() == 1 {
		matMulDenseRange(dst, a, b, 0, a.Rows)
		return
	}
	parallelRows(a.Rows, func(lo, hi int) { matMulDenseRange(dst, a, b, lo, hi) })
}

// matMulDenseRange computes rows [lo, hi) of dst = a @ b four dst rows per
// pass: each streamed b row is loaded once and feeds four register-resident
// a values (4 multiply-adds per b load instead of 1), and the four dst rows
// it writes stay in L1 because b.Cols is cache-small on this path. No
// packing, no zero-skip. Per-element accumulation is k-ascending, so the
// result is bitwise-identical to the straight-line ikj loop for every shape
// and any [lo, hi) split — the lane grouping only changes which rows are
// computed together, never the order of adds within an element.
func matMulDenseRange(dst, a, b *Matrix, lo, hi int) {
	n, p := a.Cols, b.Cols
	i := lo
	for ; i+4 <= hi; i += 4 {
		d0 := dst.Data[i*p : i*p+p]
		d1 := dst.Data[(i+1)*p : (i+1)*p+p][:len(d0)]
		d2 := dst.Data[(i+2)*p : (i+2)*p+p][:len(d0)]
		d3 := dst.Data[(i+3)*p : (i+3)*p+p][:len(d0)]
		for j := range d0 {
			d0[j] = 0
			d1[j] = 0
			d2[j] = 0
			d3[j] = 0
		}
		a0 := a.Data[i*n : i*n+n]
		a1 := a.Data[(i+1)*n : (i+1)*n+n][:len(a0)]
		a2 := a.Data[(i+2)*n : (i+2)*n+n][:len(a0)]
		a3 := a.Data[(i+3)*n : (i+3)*n+n][:len(a0)]
		for k, av0 := range a0 {
			av1, av2, av3 := a1[k], a2[k], a3[k]
			brow := b.Data[k*p : k*p+p][:len(d0)]
			for j, bv := range brow {
				d0[j] += av0 * bv
				d1[j] += av1 * bv
				d2[j] += av2 * bv
				d3[j] += av3 * bv
			}
		}
	}
	if i < hi {
		matMulSmallRange(dst, a, b, i, hi)
	}
}

// matMulSmallRange computes rows [lo, hi) of dst = a @ b with an ikj loop
// order that streams b row-wise. No packing, no zero-skip: the small-product
// path of MatMulInto. Accumulation order (k ascending per element) matches
// the blocked kernel's single-panel order.
func matMulSmallRange(dst, a, b *Matrix, lo, hi int) {
	n, p := a.Cols, b.Cols
	for i := lo; i < hi; i++ {
		drow := dst.Data[i*p : i*p+p]
		for j := range drow {
			drow[j] = 0
		}
		arow := a.Data[i*n : i*n+n]
		for k, av := range arow {
			brow := b.Data[k*p : k*p+p][:len(drow)]
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
}

// MatMul allocates and returns a @ b.
func MatMul(a, b *Matrix) *Matrix {
	dst := New(a.Rows, b.Cols)
	MatMulInto(dst, a, b)
	return dst
}

// MatMulTransBInto computes dst = a @ bᵀ without materializing bᵀ.
func MatMulTransBInto(dst, a, b *Matrix) {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulTransB %dx%d @ (%dx%d)ᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic("tensor: MatMulTransBInto dst shape")
	}
	// The serial path goes through a named range function so no closure is
	// materialized on it (conditionally-constructed closures heap-escape even
	// when the parallel branch is never taken).
	if a.Rows*a.Cols*b.Rows < parallelThreshold || workerLimit() == 1 {
		matMulTransBRange(dst, a, b, 0, a.Rows, false)
		return
	}
	parallelRows(a.Rows, func(lo, hi int) { matMulTransBRange(dst, a, b, lo, hi, false) })
}

// matMulTransBRange computes (or, with accumulate, adds) rows [lo, hi) of
// a @ bᵀ into dst. Both operands stream along k contiguously, so no packing
// is needed; rows are processed in 2×4 register tiles (eight dot products
// share six operand loads per k — 2×4 rather than 4×4 because eight f64
// accumulators plus six operands fit the sixteen scalar XMM registers of
// GOAMD64=v1, while a 4×4 tile spills). Every dot product accumulates
// k-ascending from zero, so results are bitwise-identical to the
// straight-line loop for every shape and any [lo, hi) split.
func matMulTransBRange(dst, a, b *Matrix, lo, hi int, accumulate bool) {
	n, p := a.Cols, b.Cols
	m2 := b.Rows
	i := lo
	for ; i+2 <= hi; i += 2 {
		a0 := a.Data[i*n : i*n+n]
		a1 := a.Data[(i+1)*n : (i+1)*n+n][:len(a0)]
		d0 := dst.Data[i*m2 : i*m2+m2]
		d1 := dst.Data[(i+1)*m2 : (i+1)*m2+m2][:len(d0)]
		j := 0
		for ; j+4 <= m2; j += 4 {
			b0 := b.Data[j*p : j*p+p][:len(a0)]
			b1 := b.Data[(j+1)*p : (j+1)*p+p][:len(a0)]
			b2 := b.Data[(j+2)*p : (j+2)*p+p][:len(a0)]
			b3 := b.Data[(j+3)*p : (j+3)*p+p][:len(a0)]
			var c00, c01, c02, c03 float64
			var c10, c11, c12, c13 float64
			for k, av0 := range a0 {
				bv0, bv1, bv2, bv3 := b0[k], b1[k], b2[k], b3[k]
				c00 += av0 * bv0
				c01 += av0 * bv1
				c02 += av0 * bv2
				c03 += av0 * bv3
				av1 := a1[k]
				c10 += av1 * bv0
				c11 += av1 * bv1
				c12 += av1 * bv2
				c13 += av1 * bv3
			}
			if accumulate {
				d0[j] += c00
				d0[j+1] += c01
				d0[j+2] += c02
				d0[j+3] += c03
				d1[j] += c10
				d1[j+1] += c11
				d1[j+2] += c12
				d1[j+3] += c13
			} else {
				d0[j] = c00
				d0[j+1] = c01
				d0[j+2] = c02
				d0[j+3] = c03
				d1[j] = c10
				d1[j+1] = c11
				d1[j+2] = c12
				d1[j+3] = c13
			}
		}
		for ; j < m2; j++ {
			brow := b.Data[j*p : j*p+p][:len(a0)]
			var s0, s1 float64
			for k, bv := range brow {
				s0 += a0[k] * bv
				s1 += a1[k] * bv
			}
			if accumulate {
				d0[j] += s0
				d1[j] += s1
			} else {
				d0[j] = s0
				d1[j] = s1
			}
		}
	}
	for ; i < hi; i++ {
		arow := a.Data[i*n : i*n+n]
		drow := dst.Data[i*m2 : i*m2+m2]
		for j := 0; j < m2; j++ {
			brow := b.Data[j*p : j*p+p][:len(arow)]
			var s float64
			for k, bv := range brow {
				s += arow[k] * bv
			}
			if accumulate {
				drow[j] += s
			} else {
				drow[j] = s
			}
		}
	}
}

// MatMulTransB allocates and returns a @ bᵀ.
func MatMulTransB(a, b *Matrix) *Matrix {
	dst := New(a.Rows, b.Rows)
	MatMulTransBInto(dst, a, b)
	return dst
}

// MatMulTransBAddInto accumulates dst += a @ bᵀ without materializing bᵀ or a
// temporary product (the gradient-accumulation form autograd's MatMul
// backward uses: dA += dO @ Bᵀ). Workers own disjoint dst row blocks.
func MatMulTransBAddInto(dst, a, b *Matrix) {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulTransBAdd %dx%d @ (%dx%d)ᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic("tensor: MatMulTransBAddInto dst shape")
	}
	if a.Rows*a.Cols*b.Rows < parallelThreshold || workerLimit() == 1 {
		matMulTransBRange(dst, a, b, 0, a.Rows, true)
		return
	}
	parallelRows(a.Rows, func(lo, hi int) { matMulTransBRange(dst, a, b, lo, hi, true) })
}

// MatMulTransAInto computes dst = aᵀ @ b, accumulating into dst (dst is NOT
// zeroed first — this is the gradient-accumulation form used by autograd).
// Large products are parallelized across dst row blocks: each worker owns a
// disjoint set of dst rows, so no synchronization is needed.
//
// Like the dense forward kernel it carries no zero-skip: its left operand is
// forward activations, and those no longer hold mask-zeroed token rows (the
// models multiply valid rows only); the all-zero rows that remain — the
// aggregate of a target without neighbors — are 0.1–7 % of the tiles, where
// the test costs more on the dense rows than it saves (EXPERIMENTS.md).
func MatMulTransAInto(dst, a, b *Matrix) {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulTransA (%dx%d)ᵀ @ %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic("tensor: MatMulTransAInto dst shape")
	}
	work := a.Rows * a.Cols * b.Cols
	if work < parallelThreshold || workerLimit() == 1 || dst.Rows == 1 {
		matMulTransARange(dst, a, b, 0, dst.Rows)
		return
	}
	parallelRows(dst.Rows, func(lo, hi int) { matMulTransARange(dst, a, b, lo, hi) })
}

// matMulTransARange accumulates dst rows [lo, hi) of aᵀ @ b. Four dst rows
// (four a columns) are produced per pass so each streamed b row is loaded
// once for four accumulate lanes; the four a loads per k are contiguous.
// Per-element accumulation is k-ascending exactly like the straight-line
// loop, so any [lo, hi) split of rows is bitwise-equivalent to serial.
func matMulTransARange(dst, a, b *Matrix, lo, hi int) {
	n, p := a.Cols, b.Cols
	m := a.Rows
	i := lo
	for ; i+4 <= hi; i += 4 {
		d0 := dst.Data[i*p : i*p+p]
		d1 := dst.Data[(i+1)*p : (i+1)*p+p][:len(d0)]
		d2 := dst.Data[(i+2)*p : (i+2)*p+p][:len(d0)]
		d3 := dst.Data[(i+3)*p : (i+3)*p+p][:len(d0)]
		for k := 0; k < m; k++ {
			acol := a.Data[k*n+i : k*n+i+4]
			av0, av1, av2, av3 := acol[0], acol[1], acol[2], acol[3]
			brow := b.Data[k*p : k*p+p][:len(d0)]
			for j, bv := range brow {
				d0[j] += av0 * bv
				d1[j] += av1 * bv
				d2[j] += av2 * bv
				d3[j] += av3 * bv
			}
		}
	}
	for ; i < hi; i++ {
		drow := dst.Data[i*p : i*p+p]
		for k := 0; k < m; k++ {
			av := a.Data[k*n+i]
			brow := b.Data[k*p : k*p+p][:len(drow)]
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
}

// parallelRows splits [0, rows) across the worker pool and blocks until all
// chunks complete. The pool width is re-read from GOMAXPROCS on every call
// (workerLimit), so resizing the process takes effect immediately.
func parallelRows(rows int, body func(lo, hi int)) {
	workers := workerLimit()
	if workers > rows {
		workers = rows
	}
	if workers <= 1 {
		// No parallelism to win: skip the goroutine + WaitGroup traffic (and
		// their allocations) instead of fanning out to a single worker.
		body(0, rows)
		return
	}
	chunk := (rows + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < rows; lo += chunk {
		hi := lo + chunk
		if hi > rows {
			hi = rows
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			body(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// ParallelRows exposes the row-block scheduler for other packages' kernels.
func ParallelRows(rows int, body func(lo, hi int)) { parallelRows(rows, body) }
