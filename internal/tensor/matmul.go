package tensor

import (
	"fmt"
	"runtime"
	"sync"
)

// parallelThreshold is the number of multiply-adds below which MatMul stays
// single-threaded; goroutine fan-out costs more than it saves on tiny inputs.
const parallelThreshold = 1 << 16

// workerLimit reports the scheduler width for parallel kernels. It is read
// at call time — not frozen at package init — so runtime.GOMAXPROCS changes
// (tests pinning to 1, operators resizing a cgroup) take effect on the next
// kernel invocation. GOMAXPROCS(0) is a cheap read; callers on a hot path
// read it once per kernel call, never per row.
func workerLimit() int { return runtime.GOMAXPROCS(0) }

// MatMulInto computes dst = a @ b. dst must be pre-shaped a.Rows×b.Cols and
// must not alias a or b. It runs on the 4×8 register tile (tile.go) and, past
// parallelThreshold, is split across worker goroutines by row block; each
// worker owns a disjoint range of dst rows.
//
// There is no zero-skip branch: every a element is multiplied through, which
// keeps the inner loop branch-free and lets products with exact-zero
// operands follow IEEE semantics (0·Inf = NaN propagates instead of being
// skipped). The models do not hand it mask-zeroed rows to skip: they
// multiply valid neighbor rows only.
func MatMulInto(dst, a, b *Matrix) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMul %dx%d @ %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulInto dst %dx%d want %dx%d", dst.Rows, dst.Cols, a.Rows, b.Cols))
	}
	work := a.Rows * a.Cols * b.Cols
	if work < parallelThreshold || workerLimit() == 1 {
		productRange(dst.Data, a.Data, a.Cols, 1, b, nil, tileStore, 0, a.Rows)
		return
	}
	ParallelRows(a.Rows, func(lo, hi int) { productRange(dst.Data, a.Data, a.Cols, 1, b, nil, tileStore, lo, hi) })
}

// MatMulTransAInto computes dst = aᵀ @ b, accumulating into dst (dst is NOT
// zeroed first — this is the gradient-accumulation form used by autograd).
// It is the same tile as MatMulInto with a's strides swapped: a lane is a
// column of a and the depth runs down its rows. Large products are
// parallelized across dst row blocks: each worker owns a disjoint set of dst
// rows, so no synchronization is needed.
//
// Like the forward product it carries no zero-skip: its left operand is
// forward activations, and those no longer hold mask-zeroed token rows (the
// models multiply valid rows only); the all-zero rows that remain — the
// aggregate of a target without neighbors — are 0.1–7 % of the rows, where
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
		productRange(dst.Data, a.Data, 1, a.Cols, b, nil, tileAccum, 0, dst.Rows)
		return
	}
	// The closure escapes to the workers: it captures copies, so the
	// caller's headers (row-block views, MatMulPartsGradInto) stay on its
	// stack.
	d, x, kstep, y := dst.Data, a.Data, a.Cols, *b
	ParallelRows(dst.Rows, func(lo, hi int) { productRange(d, x, 1, kstep, &y, nil, tileAccum, lo, hi) })
}

// productRange computes dst rows [lo, hi) of a lane-strided product (the
// tile's own form, tile.go), plus bias on every row when it is non-nil:
//
//	dst[i, :]  ⟵  Σ_kk  a[i*lane + kk*kstep] · b[kk, :]  (+ bias)
//
// on the tile where the range holds a whole one, on the scalar loop where
// it does not. Per-element accumulation is k-ascending either way and the
// bias lands with one add after it, so any [lo, hi) split of rows is
// bitwise-equivalent to serial.
func productRange(dst, a []float64, lane, kstep int, b *Matrix, bias []float64, mode tileMode, lo, hi int) {
	if !tileRows(dst, b.Cols, a, lane, kstep, b.Data, b.Rows, bias, mode, lo, hi) {
		axpyRows(dst, a, lane, kstep, b, bias, mode, lo, hi)
	}
}

// tileRows covers dst rows [lo, hi) × cols [0, p) with 4-row panels and
// reports whether it could: the range must hold one whole tile and the
// product must have depth. One tile call covers a panel's p/8 whole 8-wide
// blocks. Where the extent is not a multiple of the tile (rows%4, cols%8)
// the last block is shifted back to end on the boundary and commits only
// the part no earlier block owns (tilePart, one block at a time), so
// remainders run on the same kernel and every element is still written
// exactly once.
func tileRows(dst []float64, p int, a []float64, lane, kstep int, b []float64, k int, bias []float64, mode tileMode, lo, hi int) bool {
	if !tileFits(hi-lo, p, k) {
		return false
	}
	blocks := p / 8
	for i := lo; i < hi; i += 4 {
		l0 := 0
		if i+4 > hi {
			l0, i = i+4-hi, hi-4
		}
		d, ai := dst[i*p:], a[i*lane:]
		if l0 == 0 {
			tile(d, p, ai, lane, kstep, b, p, k, blocks, bias, mode)
		} else {
			for j := 0; j < 8*blocks; j += 8 {
				tilePart(d[j:], p, ai, lane, kstep, b[j:], p, k, biasFrom(bias, j), mode, l0, 0)
			}
		}
		if c0 := 8 - p%8; c0 < 8 {
			j := p - 8
			tilePart(d[j:], p, ai, lane, kstep, b[j:], p, k, biasFrom(bias, j), mode, l0, c0)
		}
	}
	return true
}

// biasFrom returns bias from column j on; nil stays nil (no bias).
func biasFrom(bias []float64, j int) []float64 {
	if bias == nil {
		return nil
	}
	return bias[j:]
}

// tileFits reports whether a rows×cols block of depth k holds a whole tile.
func tileFits(rows, cols, k int) bool { return rows >= 4 && cols >= 8 && k > 0 }

// axpyRows is productRange's scalar form, for ranges no tile fits (fewer
// than 4 rows, fewer than 8 columns, k = 0): one dst row at a time,
// streaming b row-wise. tileStore zeroes the row first; tileAccum
// accumulates onto it; a non-nil bias is added after the row's k loop. The
// float64(…) conversion forbids multiply-add fusion (see tileGo).
func axpyRows(dst, a []float64, lane, kstep int, b *Matrix, bias []float64, mode tileMode, lo, hi int) {
	k, p := b.Rows, b.Cols
	for i := lo; i < hi; i++ {
		drow := dst[i*p : i*p+p]
		if mode == tileStore {
			clear(drow)
		}
		ai := i * lane
		for kk := 0; kk < k; kk++ {
			av := a[ai]
			brow := b.Data[kk*p : kk*p+p][:len(drow)]
			for j, bv := range brow {
				drow[j] += float64(av * bv)
			}
			ai += kstep
		}
		if bias != nil {
			for j, bv := range bias[:len(drow)] {
				drow[j] += bv
			}
		}
	}
}

// MatMulTransBAddInto accumulates dst += a @ bᵀ without a temporary product
// (the gradient-accumulation form autograd's MatMul backward uses:
// dA += dO @ Bᵀ). Each element's sum is formed from zero and added to dst
// once, at the end. Workers own disjoint dst row blocks.
func MatMulTransBAddInto(dst, a, b *Matrix) {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulTransBAdd %dx%d @ (%dx%d)ᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic("tensor: MatMulTransBAddInto dst shape")
	}
	n, m2 := a.Cols, b.Rows
	if !tileFits(a.Rows, m2, n) { // no tile will run: skip the copy
		dotRows(dst, a, b, 0, a.Rows)
		return
	}
	// Run it as the forward tile against bᵀ: b is the small operand on every
	// model path (a weight matrix), so copying it k-major once per call is
	// noise next to the product, and it turns the tile's b loads into the
	// same contiguous 8-wide rows the other two products read.
	bt := getTrans(n * m2)
	transposeInto(bt, b)
	if a.Rows*n*m2 < parallelThreshold || workerLimit() == 1 {
		transBRange(dst, a, b, bt, 0, a.Rows)
	} else {
		// Copies for the escaping closure, as in MatMulTransAInto.
		d, x, y := *dst, *a, *b
		ParallelRows(a.Rows, func(lo, hi int) { transBRange(&d, &x, &y, bt, lo, hi) })
	}
	putTrans(bt)
}

// transFree recycles the k-major copies of b that a @ bᵀ multiplies against:
// a free list of grow-only buffers, one per concurrent caller at the peak,
// never aliasing caller data. A plain list rather than a sync.Pool because
// the steady state must allocate exactly nothing — a Pool is emptied by the
// collector and drops items at random under the race detector, either of
// which shows up in the step allocation budgets.
var transFree struct {
	sync.Mutex
	bufs [][]float64
}

func getTrans(n int) []float64 {
	var buf []float64
	transFree.Lock()
	if last := len(transFree.bufs) - 1; last >= 0 {
		buf, transFree.bufs = transFree.bufs[last], transFree.bufs[:last]
	}
	transFree.Unlock()
	if cap(buf) < n {
		buf = make([]float64, n)
	}
	return buf[:n]
}

func putTrans(buf []float64) {
	transFree.Lock()
	transFree.bufs = append(transFree.bufs, buf)
	transFree.Unlock()
}

// transposeInto writes b's k-major copy (bᵀ, row-major) into bt.
func transposeInto(bt []float64, b *Matrix) {
	n, m2 := b.Cols, b.Rows
	for j := 0; j < m2; j++ {
		brow := b.Data[j*n : j*n+n]
		for kk, bv := range brow {
			bt[kk*m2+j] = bv
		}
	}
}

// transBRange adds rows [lo, hi) of a @ bᵀ to dst against bt, b's k-major
// copy.
func transBRange(dst, a, b *Matrix, bt []float64, lo, hi int) {
	if !tileRows(dst.Data, b.Rows, a.Data, a.Cols, 1, bt, a.Cols, nil, tileAdd, lo, hi) {
		dotRows(dst, a, b, lo, hi)
	}
}

// dotRows is dst += a @ bᵀ's scalar form for ranges no tile fits: one dot
// product per element, both operands contiguous along k, summed k-ascending
// from zero and then added to dst.
func dotRows(dst, a, b *Matrix, lo, hi int) {
	n, m2 := a.Cols, b.Rows
	for i := lo; i < hi; i++ {
		arow := a.Data[i*n : i*n+n]
		drow := dst.Data[i*m2 : i*m2+m2]
		for j := range drow {
			brow := b.Data[j*n : j*n+n][:len(arow)]
			var s float64
			for kk, bv := range brow {
				s += float64(arow[kk] * bv)
			}
			drow[j] = s + drow[j]
		}
	}
}

// MatMulPartsInto computes dst = [x₀ ‖ x₁ ‖ …] @ w + bias without forming
// the concatenation, bias (w.Cols long, or nil for none) added to every
// row: part p multiplies w's row block p, the rows its columns meet in the
// concatenated product. The first part with columns runs in tileStore form
// and every later one in tileAccum, so each element is accumulated
// k-ascending across the parts, one rounded multiply and one rounded add
// per step: the sequence of one pass over the concatenation, and therefore
// bitwise MatMulInto(dst, concat, w). The last part with columns adds the
// bias in the tile's store, one rounded add after its sum: bitwise that
// product followed by a row-vector add. Zero-width parts are skipped; if
// every part has zero width, dst = 0 + bias row by row (zero with no bias).
func MatMulPartsInto(dst, w *Matrix, parts []*Matrix, bias []float64) {
	checkParts(dst, w, parts)
	if bias != nil && len(bias) != w.Cols {
		panic(fmt.Sprintf("tensor: MatMulParts bias of %d for %d columns", len(bias), w.Cols))
	}
	if dst.Rows*w.Rows*w.Cols < parallelThreshold || workerLimit() == 1 {
		partsRange(dst.Data, w, parts, bias, 0, dst.Rows)
		return
	}
	ParallelRows(dst.Rows, func(lo, hi int) { partsRange(dst.Data, w, parts, bias, lo, hi) })
}

// partsRange computes dst rows [lo, hi) of MatMulPartsInto, part by part.
func partsRange(dst []float64, w *Matrix, parts []*Matrix, bias []float64, lo, hi int) {
	last := -1
	for p, x := range parts {
		if x.Cols > 0 {
			last = p
		}
	}
	if last < 0 { // depth 0: axpyRows clears each row and adds the bias
		productRange(dst, nil, 0, 0, w, bias, tileStore, lo, hi)
		return
	}
	mode, off := tileStore, 0
	for p, x := range parts {
		if x.Cols == 0 {
			continue
		}
		var bp []float64
		if p == last {
			bp = bias
		}
		wp := w.rowBlock(off, x.Cols)
		productRange(dst, x.Data, x.Cols, 1, &wp, bp, mode, lo, hi)
		mode, off = tileAccum, off+x.Cols
	}
}

// MatMulPartsGradInto accumulates MatMulPartsInto's gradients from dO
// straight into each part's: dParts[p] += dO @ w_pᵀ and dW's row block p
// += x_pᵀ @ dO, where w_p is the row block part p multiplies. A nil
// dParts[p] or dW leaves that gradient out (a constant has none). Every
// element is the sum MatMulTransBAddInto and MatMulTransAInto form on the
// concatenation, landed the same way, so no concatenated gradient is
// zeroed and no split copy follows.
func MatMulPartsGradInto(dW *Matrix, dParts []*Matrix, dO, w *Matrix, parts []*Matrix) {
	checkParts(dO, w, parts)
	if len(dParts) != len(parts) || dW != nil && !dW.SameShape(w) {
		panic("tensor: MatMulPartsGradInto gradient shapes")
	}
	off := 0
	for p, x := range parts {
		if x.Cols == 0 {
			continue
		}
		if dx := dParts[p]; dx != nil {
			wp := w.rowBlock(off, x.Cols)
			MatMulTransBAddInto(dx, dO, &wp)
		}
		if dW != nil {
			dWp := dW.rowBlock(off, x.Cols)
			MatMulTransAInto(&dWp, x, dO)
		}
		off += x.Cols
	}
}

// checkParts validates the parts product's shapes: every part has out's
// rows, the widths sum to w's rows, and out has w's columns.
func checkParts(out, w *Matrix, parts []*Matrix) {
	k := 0
	for _, x := range parts {
		if x.Rows != out.Rows {
			panic(fmt.Sprintf("tensor: MatMulParts part %dx%d for %d rows", x.Rows, x.Cols, out.Rows))
		}
		k += x.Cols
	}
	if k != w.Rows || out.Cols != w.Cols {
		panic(fmt.Sprintf("tensor: MatMulParts widths sum to %d against %dx%d weight, output %dx%d", k, w.Rows, w.Cols, out.Rows, out.Cols))
	}
}

// ParallelRows splits [0, rows) across the worker pool and blocks until all
// chunks complete (exported for other packages' row kernels). The pool width
// is re-read from GOMAXPROCS on every call (workerLimit), so resizing the
// process takes effect immediately.
func ParallelRows(rows int, body func(lo, hi int)) {
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
