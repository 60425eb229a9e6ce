package tensor

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"taser/internal/mathx"
)

// matMulRef is the seed repo's skip-based ikj loop, kept verbatim as the
// equivalence reference for the tiled kernels: per-element accumulation is
// k-ascending from zero, which is the order the dense, blocked (single
// panel), and parallel paths all contractually preserve.
func matMulRef(dst, a, b *Matrix) {
	n, p := a.Cols, b.Cols
	for i := 0; i < a.Rows; i++ {
		drow := dst.Data[i*p : (i+1)*p]
		for j := range drow {
			drow[j] = 0
		}
		arow := a.Data[i*n : (i+1)*n]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Data[k*p : (k+1)*p]
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
}

// matMulTransBRef is dst += a @ bᵀ, each element's dot product summed
// k-ascending from zero before it is added.
func matMulTransBRef(dst, a, b *Matrix) {
	n := a.Cols
	m2 := b.Rows
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*n : (i+1)*n]
		drow := dst.Data[i*m2 : (i+1)*m2]
		for j := 0; j < m2; j++ {
			brow := b.Data[j*n : (j+1)*n]
			var s float64
			for k, bv := range brow {
				s += arow[k] * bv
			}
			drow[j] += s
		}
	}
}

func matMulTransARef(dst, a, b *Matrix) {
	n, p := a.Cols, b.Cols
	for i := 0; i < n; i++ {
		drow := dst.Data[i*p : (i+1)*p]
		for k := 0; k < a.Rows; k++ {
			av := a.Data[k*n+i]
			if av == 0 {
				continue
			}
			brow := b.Data[k*p : (k+1)*p]
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
}

// bitwiseDiff returns the index of the first element whose float64 bits
// differ, or -1 when the matrices are bitwise-identical.
func bitwiseDiff(x, y *Matrix) int {
	if x.Rows != y.Rows || x.Cols != y.Cols {
		return 0
	}
	for i := range x.Data {
		if math.Float64bits(x.Data[i]) != math.Float64bits(y.Data[i]) {
			return i
		}
	}
	return -1
}

// withZeros zeroes roughly the given fraction of m's elements (deterministic
// in the rng), so equivalence tests exercise the dense kernels' multiply-
// through against the reference's zero-skip.
func withZeros(m *Matrix, frac float64, rng *mathx.RNG) *Matrix {
	for i := range m.Data {
		if rng.Float64() < frac {
			m.Data[i] = 0
		}
	}
	return m
}

// TestMatMulDenseBitwiseMatchesRef pins the dense-path contract: for every
// shape (including 4-row remainders and the small-product cutover) and for
// inputs with exact zeros, MatMulInto is bitwise-identical to the seed loop.
func TestMatMulDenseBitwiseMatchesRef(t *testing.T) {
	rng := mathx.NewRNG(11)
	shapes := [][3]int{
		{1, 1, 1}, {5, 7, 3}, {8, 16, 8}, {64, 48, 24}, {66, 48, 24},
		{67, 38, 24}, {127, 24, 48}, {304, 48, 24}, {130, 38, 24},
	}
	for _, s := range shapes {
		m, k, n := s[0], s[1], s[2]
		a := withZeros(Randn(m, k, 1, rng), 0.3, rng)
		b := Randn(k, n, 1, rng)
		got := New(m, n)
		MatMulInto(got, a, b)
		want := New(m, n)
		matMulRef(want, a, b)
		if d := bitwiseDiff(got, want); d >= 0 {
			t.Fatalf("%dx%dx%d: elem %d differs: got %v want %v", m, k, n, d, got.Data[d], want.Data[d])
		}
	}
}

// TestMatMulTransBBitwiseMatchesRef covers the tile plus both remainders
// (dst rows not divisible by 4, dst cols not divisible by 8) and the scalar
// form, accumulating onto a zero and onto a non-zero dst.
func TestMatMulTransBBitwiseMatchesRef(t *testing.T) {
	rng := mathx.NewRNG(14)
	shapes := [][3]int{{1, 5, 1}, {5, 7, 6}, {32, 24, 38}, {33, 24, 39}, {130, 48, 27}}
	for _, s := range shapes {
		m, k, n := s[0], s[1], s[2]
		a := Randn(m, k, 1, rng)
		b := Randn(n, k, 1, rng)
		got, want := New(m, n), New(m, n)
		for round := 0; round < 2; round++ {
			MatMulTransBAddInto(got, a, b)
			matMulTransBRef(want, a, b)
			if d := bitwiseDiff(got, want); d >= 0 {
				t.Fatalf("%dx%dx%d round %d: elem %d differs", m, k, n, round, d)
			}
		}
	}
}

// TestMatMulTransABitwiseMatchesRef covers the 4-lane TransA kernel against
// the seed's skip loop, with whole zero rows (the masked-token case the
// tile-level skip is built for) and lane remainders.
func TestMatMulTransABitwiseMatchesRef(t *testing.T) {
	rng := mathx.NewRNG(15)
	shapes := [][3]int{{5, 3, 4}, {40, 24, 24}, {41, 25, 23}, {160, 38, 24}}
	for _, s := range shapes {
		m, k, n := s[0], s[1], s[2]
		a := Randn(m, k, 1, rng)
		for i := 0; i < m; i += 3 { // mask whole token rows
			for j := 0; j < k; j++ {
				a.Data[i*k+j] = 0
			}
		}
		b := Randn(m, n, 1, rng)
		got := Randn(k, n, 1, rng)
		want := got.Clone()
		MatMulTransAInto(got, a, b)
		matMulTransARef(want, a, b)
		if d := bitwiseDiff(got, want); d >= 0 {
			t.Fatalf("(%dx%d)ᵀ@%dx%d: elem %d differs", m, k, m, n, d)
		}
	}
}

// TestMatMulParallelSerialBitwiseAtCrossover forces multiple workers and
// checks, for every parallelized matmul entry point, that results exactly at
// and around the parallelThreshold crossover are bitwise-identical to the
// single-worker run — the row-block ownership contract.
func TestMatMulParallelSerialBitwiseAtCrossover(t *testing.T) {
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)
	// m*k*n: 63·32·32 = 64512 (below 1<<16), 64·32·32 = 65536 (at), 65: above.
	for _, m := range []int{63, 64, 65} {
		k, n := 32, 32
		rng := mathx.NewRNG(uint64(17 + m))
		a := withZeros(Randn(m, k, 1, rng), 0.2, rng)
		b := Randn(k, n, 1, rng)
		bt := Randn(n, k, 1, rng)
		wide := Randn(m, n, 1, rng)

		type result struct{ mm, tba, ta *Matrix }
		run := func(procs int) result {
			runtime.GOMAXPROCS(procs)
			r := result{New(m, n), Randn(m, n, 1, mathx.NewRNG(5)), Randn(k, n, 1, mathx.NewRNG(6))}
			MatMulInto(r.mm, a, b)
			MatMulTransBAddInto(r.tba, a, bt)
			MatMulTransAInto(r.ta, a, wide)
			return r
		}
		serial := run(1)
		parallel := run(4)
		for _, pair := range []struct {
			name string
			s, p *Matrix
		}{
			{"MatMulInto", serial.mm, parallel.mm},
			{"MatMulTransBAddInto", serial.tba, parallel.tba},
			{"MatMulTransAInto", serial.ta, parallel.ta},
		} {
			if d := bitwiseDiff(pair.s, pair.p); d >= 0 {
				t.Fatalf("m=%d %s: parallel differs from serial at elem %d", m, pair.name, d)
			}
		}
	}
}

// TestWorkerLimitTracksGOMAXPROCS is the regression test for the frozen
// worker count: the kernels must see GOMAXPROCS changes made after package
// init, on the very next call.
func TestWorkerLimitTracksGOMAXPROCS(t *testing.T) {
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)
	for _, procs := range []int{1, 3, 2} {
		runtime.GOMAXPROCS(procs)
		if got := workerLimit(); got != procs {
			t.Fatalf("workerLimit() = %d after GOMAXPROCS(%d)", got, procs)
		}
	}
	// ParallelRows must fan out to the current width, not the init-time one.
	runtime.GOMAXPROCS(2)
	var mu sync.Mutex
	var chunks [][2]int
	ParallelRows(10, func(lo, hi int) {
		mu.Lock()
		chunks = append(chunks, [2]int{lo, hi})
		mu.Unlock()
	})
	if len(chunks) != 2 {
		t.Fatalf("ParallelRows split into %d chunks with GOMAXPROCS=2: %v", len(chunks), chunks)
	}
	covered := make([]bool, 10)
	for _, ch := range chunks {
		for i := ch[0]; i < ch[1]; i++ {
			if covered[i] {
				t.Fatalf("row %d covered twice: %v", i, chunks)
			}
			covered[i] = true
		}
	}
	for i, c := range covered {
		if !c {
			t.Fatalf("row %d never covered: %v", i, chunks)
		}
	}
	runtime.GOMAXPROCS(1)
	chunks = chunks[:0]
	ParallelRows(10, func(lo, hi int) {
		chunks = append(chunks, [2]int{lo, hi})
	})
	if len(chunks) != 1 || chunks[0] != [2]int{0, 10} {
		t.Fatalf("ParallelRows with GOMAXPROCS=1 must run one serial chunk, got %v", chunks)
	}
}

// stepShapes are the six m×k×n matmuls of one train-taser-tgat step
// (wikipedia, batch 32, Hidden 24, N 10, M 25): x is m×k, w is k×n.
var stepShapes = [][3]int{{1389, 73, 73}, {5500, 48, 24}, {733, 72, 24}, {1389, 105, 16}, {1056, 24, 24}, {1389, 32, 16}}

// serveColdShapes are the linear layers of one serve-cold flush (wikipedia,
// TGAT, Hidden 24, N 10, ≈31 roots per flush; valid-edge rows averaged over a
// seed-1 run): the key/value projections of the lower layer (k = 48: edge
// features ‖ Φ(Δt)) and the upper layer (k = 72: h ‖ edge features ‖ Φ(Δt)),
// and the time encoder Φ = cos(Δt·ω + φ) on the lower layer's edges (k = 1).
var serveColdShapes = [][3]int{{873, 48, 24}, {193, 72, 24}, {873, 1, 16}}

// BenchmarkMatMul is the raw-speed floor (DESIGN.md §13): every step shape ×
// the three product forms it runs in — forward x@w (ab), the weight gradient
// xᵀ@dy (aTb) and the input gradient dy@wᵀ (abT), 2·m·k·n FLOP each — and
// every serve-cold layer as the forward a linear layer runs, x@w + b with the
// bias in the tile's store (abBias), on the AVX2 assembly tile (asm) and on
// its Go twin (go), the path on CPUs without AVX2. SetBytes carries the
// multiply-add FLOP count, so the MB/s column reads MFLOP/s. On a shared host
// the asm/go ratio is the stable signal.
func BenchmarkMatMul(b *testing.B) {
	defer forceGoTile(false)
	type form struct {
		name string
		run  func(x, w, y, dw, dx, bias *Matrix)
	}
	forms := []form{
		{"ab", func(x, w, y, dw, dx, bias *Matrix) { MatMulInto(y, x, w) }},
		{"aTb", func(x, w, y, dw, dx, bias *Matrix) { MatMulTransAInto(dw, x, y) }},
		{"abT", func(x, w, y, dw, dx, bias *Matrix) { MatMulTransBAddInto(dx, y, w) }},
	}
	affine := []form{
		{"abBias", func(x, w, y, dw, dx, bias *Matrix) { MatMulPartsInto(y, w, []*Matrix{x}, bias.Data) }},
	}
	run := func(shapes [][3]int, forms []form) {
		for _, s := range shapes {
			m, k, n := s[0], s[1], s[2]
			rng := mathx.NewRNG(99)
			x, w, bias := Randn(m, k, 1, rng), Randn(k, n, 1, rng), Randn(1, n, 1, rng)
			y, dw, dx := New(m, n), New(k, n), New(m, k)
			for _, f := range forms {
				for _, impl := range []string{"asm", "go"} {
					b.Run(fmt.Sprintf("%dx%dx%d/%s/%s", m, k, n, f.name, impl), func(b *testing.B) {
						if asm := forceGoTile(impl == "go"); !asm && impl == "asm" {
							b.Skip("no AVX2 on this CPU: every product runs the Go twin")
						}
						b.SetBytes(int64(2 * m * k * n))
						for i := 0; i < b.N; i++ {
							f.run(x, w, y, dw, dx, bias)
						}
					})
				}
			}
		}
	}
	run(stepShapes, forms)
	run(serveColdShapes, affine)
}

// BenchmarkMatMulRef is the seed's scalar loop on the same forward products.
func BenchmarkMatMulRef(b *testing.B) {
	for _, s := range stepShapes {
		m, k, n := s[0], s[1], s[2]
		b.Run(fmt.Sprintf("%dx%dx%d", m, k, n), func(b *testing.B) {
			rng := mathx.NewRNG(99)
			x, w, y := Randn(m, k, 1, rng), Randn(k, n, 1, rng), New(m, n)
			b.SetBytes(int64(2 * m * k * n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				matMulRef(y, x, w)
			}
		})
	}
}
