package tensor

import (
	"math"
	"testing"

	"taser/internal/mathx"
)

// canaryBits is a NaN with a recognizable payload: a kernel that reads a
// canary poisons its output with NaN, one that writes over it changes the
// bits.
const canaryBits = 0x7ff8_dead_beef_0001

// guarded returns a zeroed n-element slice of exact length and capacity cut
// from a backing array that carries canaries on both sides, and a function
// reporting whether every canary is still intact.
func guarded(n int) (s []float64, intact func() bool) {
	const g = 16
	back := make([]float64, n+2*g)
	for i := range back {
		back[i] = math.Float64frombits(canaryBits)
	}
	s = back[g : g+n : g+n]
	clear(s)
	return s, func() bool {
		for i := 0; i < g; i++ {
			if math.Float64bits(back[i]) != canaryBits || math.Float64bits(back[g+n+i]) != canaryBits {
				return false
			}
		}
		return true
	}
}

// guardedRandn is Randn on guarded storage.
func guardedRandn(r, c int, rng *mathx.RNG) (*Matrix, func() bool) {
	s, intact := guarded(r * c)
	for i := range s {
		s[i] = rng.NormFloat64()
	}
	return FromSlice(r, c, s), intact
}

// sameBits returns the first index at which x and y differ bitwise — any NaN
// equal to any NaN, since the hardware chooses which operand's payload
// survives — or -1.
func sameBits(x, y []float64) int {
	if len(x) != len(y) {
		return 0
	}
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(y[i]) && !(math.IsNaN(x[i]) && math.IsNaN(y[i])) {
			return i
		}
	}
	return -1
}

func firstNaN(x []float64) int {
	for i, v := range x {
		if math.IsNaN(v) {
			return i
		}
	}
	return -1
}

// tileRef is the tile contract (tile.go) as the straight-line scalar loop.
func tileRef(dst []float64, ldd int, a []float64, lane, kstep int, b []float64, ldb, k, blocks int, bias []float64, mode tileMode) {
	for l := 0; l < 4; l++ {
		for c := 0; c < 8*blocks; c++ {
			var s float64
			if mode == tileAccum {
				s = dst[l*ldd+c]
			}
			for kk := 0; kk < k; kk++ {
				s += float64(a[l*lane+kk*kstep] * b[kk*ldb+c])
			}
			if mode == tileAdd {
				s = dst[l*ldd+c] + s
			}
			if bias != nil {
				s += bias[c]
			}
			dst[l*ldd+c] = s
		}
	}
}

// tileCase is one tile call's geometry; operand lengths are exactly the
// extent the contract says the tile touches.
type tileCase struct {
	ldd, lane, kstep, ldb, k, blocks int
	bias                             bool
	mode                             tileMode
}

func (tc tileCase) lens() (dst, a, b, bias int) {
	w := 8 * tc.blocks
	if tc.bias {
		bias = w
	}
	if tc.k == 0 {
		return 3*tc.ldd + w, 0, 0, bias
	}
	return 3*tc.ldd + w, 3*tc.lane + (tc.k-1)*tc.kstep + 1, (tc.k-1)*tc.ldb + w, bias
}

// inPanel reports whether dst element i lies in one of the panel's four
// lanes (dst ends with the last one; the gaps between lanes belong to the
// caller).
func (tc tileCase) inPanel(i int) bool { return i%tc.ldd < 8*tc.blocks }

// randomTileCases mixes the two layouts the drivers use (row lanes: lane ≥ k,
// kstep 1; column lanes: lane 1, kstep ≥ 4) with arbitrary strides, at depths
// that include 0 and 1, cycling through every mode × bias nil/non-nil ×
// panels of 1–4 blocks.
func randomTileCases(rng *mathx.RNG, n int) []tileCase {
	depths := []int{0, 1, 2, 3, 7, 16, 24, 73, 105}
	var out []tileCase
	for i := 0; i < n; i++ {
		k, blocks := depths[rng.Intn(len(depths))], 1+i/6%4
		tc := tileCase{
			ldd: 8*blocks + rng.Intn(70), ldb: 8*blocks + rng.Intn(70), k: k, blocks: blocks,
			bias: i/3%2 == 1, mode: tileMode(i % 3),
		}
		switch rng.Intn(3) {
		case 0:
			tc.lane, tc.kstep = k+rng.Intn(5), 1
		case 1:
			tc.lane, tc.kstep = 1, 4+rng.Intn(70)
		default:
			tc.lane, tc.kstep = rng.Intn(9), rng.Intn(9)
		}
		out = append(out, tc)
	}
	return out
}

// orNil returns s, or nil when the case has no bias.
func orNil(s []float64, ok bool) []float64 {
	if !ok {
		return nil
	}
	return s
}

// TestTileStaysInsideItsOperands is the canary test for the unchecked
// routine behind tile: with every operand cut to the exact extent the
// contract names, NaN canaries on both sides of each (the bias's included),
// and canaries in every column of b and dst past the panel's last one,
// neither implementation may read a canary (the result would turn NaN) or
// write one, and both must equal the scalar reference.
func TestTileStaysInsideItsOperands(t *testing.T) {
	rng := mathx.NewRNG(31)
	impls := map[string]func([]float64, int, []float64, int, int, []float64, int, int, int, []float64, tileMode){
		"tile": tile, "tileGo": tileGo,
	}
	canary := math.Float64frombits(canaryBits)
	for _, tc := range randomTileCases(rng, 480) {
		nd, na, nb, nbias := tc.lens()
		a, aOK := guarded(na)
		b, bOK := guarded(nb)
		bias, biasOK := guarded(nbias)
		init := make([]float64, nd)
		for _, s := range [][]float64{a, b, bias, init} {
			for i := range s {
				s[i] = rng.NormFloat64()
			}
		}
		for i := range b {
			if i%tc.ldb >= 8*tc.blocks {
				b[i] = canary
			}
		}
		for i := range init {
			if !tc.inPanel(i) {
				init[i] = canary
			}
		}
		want := append([]float64(nil), init...)
		tileRef(want, tc.ldd, a, tc.lane, tc.kstep, b, tc.ldb, tc.k, tc.blocks, orNil(bias, tc.bias), tc.mode)
		for name, impl := range impls {
			dst, dOK := guarded(nd)
			copy(dst, init)
			impl(dst, tc.ldd, a, tc.lane, tc.kstep, b, tc.ldb, tc.k, tc.blocks, orNil(bias, tc.bias), tc.mode)
			if !aOK() || !bOK() || !biasOK() || !dOK() {
				t.Fatalf("%s %+v: wrote outside an operand", name, tc)
			}
			for i, v := range dst {
				if !tc.inPanel(i) {
					if math.Float64bits(v) != canaryBits {
						t.Fatalf("%s %+v: dst[%d] outside the panel changed", name, tc, i)
					}
				} else if math.IsNaN(v) {
					t.Fatalf("%s %+v: dst[%d] is NaN — read outside an operand", name, tc, i)
				}
			}
			if i := sameBits(dst, want); i >= 0 {
				t.Fatalf("%s %+v: dst[%d] = %v, reference %v", name, tc, i, dst[i], want[i])
			}
		}
	}
}

// TestTilePanicsOnShortOperand pins where memory safety lives: an operand
// one element short of the extent the panel will touch — dst or b short of
// its last block, a bias one element short — a negative stride or an empty
// panel must panic in the Go wrapper before the unchecked routine runs.
func TestTilePanicsOnShortOperand(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", name)
			}
		}()
		f()
	}
	for _, tc := range []tileCase{
		{ldd: 8, lane: 5, kstep: 1, ldb: 8, k: 5, blocks: 1},
		{ldd: 73, lane: 1, kstep: 73, ldb: 16, k: 24, blocks: 2, mode: tileAccum},
		{ldd: 9, lane: 3, kstep: 2, ldb: 11, k: 1, blocks: 1, mode: tileAdd},
		{ldd: 24, lane: 48, kstep: 1, ldb: 24, k: 48, blocks: 3, bias: true},
		{ldd: 40, lane: 1, kstep: 40, ldb: 33, k: 7, blocks: 4, bias: true, mode: tileAccum},
	} {
		nd, na, nb, nbias := tc.lens()
		dst, a, b, bias := make([]float64, nd), make([]float64, na), make([]float64, nb), orNil(make([]float64, nbias), tc.bias)
		run := func(dst, a, b, bias []float64, ldb, kstep, blocks int) func() {
			return func() { tile(dst, tc.ldd, a, tc.lane, kstep, b, ldb, tc.k, blocks, bias, tc.mode) }
		}
		run(dst, a, b, bias, tc.ldb, tc.kstep, tc.blocks)() // exact lengths are fine
		mustPanic("short dst", run(dst[:nd-1], a, b, bias, tc.ldb, tc.kstep, tc.blocks))
		mustPanic("short a", run(dst, a[:na-1], b, bias, tc.ldb, tc.kstep, tc.blocks))
		mustPanic("short b", run(dst, a, b[:nb-1], bias, tc.ldb, tc.kstep, tc.blocks))
		mustPanic("dst short of the last block", run(dst[:nd-8], a, b, bias, tc.ldb, tc.kstep, tc.blocks))
		mustPanic("b short of the last block", run(dst, a, b[:nb-8], bias, tc.ldb, tc.kstep, tc.blocks))
		mustPanic("one block too many", run(dst, a, b, bias, tc.ldb, tc.kstep, tc.blocks+1))
		mustPanic("no block", run(dst, a, b, bias, tc.ldb, tc.kstep, 0))
		mustPanic("negative ldb", run(dst, a, b, bias, -tc.ldb, tc.kstep, tc.blocks))
		mustPanic("negative kstep", run(dst, a, b, bias, tc.ldb, -tc.kstep, tc.blocks))
		if tc.bias {
			mustPanic("short bias", run(dst, a, b, bias[:nbias-1], tc.ldb, tc.kstep, tc.blocks))
		}
	}
	// Depth 0 touches neither a nor b; the bias is still checked.
	tile(make([]float64, 32), 8, nil, 3, 1, nil, 8, 0, 1, nil, tileStore)
	mustPanic("short bias at depth 0", func() { tile(make([]float64, 32), 8, nil, 3, 1, nil, 8, 0, 1, make([]float64, 7), tileStore) })
}

// TestMatMulDriversStayInBounds runs the three entry points on matrices whose
// storage is exact-length with canaries on both sides, over shapes with
// every remainder (rows%4, cols%8, the shifted-back partial tiles, fewer
// rows or columns than one tile, k = 0): results must match the references
// bitwise with no canary read or written.
func TestMatMulDriversStayInBounds(t *testing.T) {
	rng := mathx.NewRNG(32)
	shapes := [][3]int{
		{4, 1, 8}, {5, 3, 9}, {7, 5, 15}, {3, 9, 40}, {40, 9, 7}, {13, 40, 17},
		{66, 48, 24}, {67, 38, 27}, {130, 40, 33}, {9, 0, 11}, {0, 4, 9}, {6, 4, 0},
	}
	for _, s := range shapes {
		m, k, n := s[0], s[1], s[2]
		a, aOK := guardedRandn(m, k, rng)
		b, bOK := guardedRandn(k, n, rng)
		bt, btOK := guardedRandn(n, k, rng)
		wide, wideOK := guardedRandn(m, n, rng)
		check := func(name string, got, want *Matrix, gotOK func() bool) {
			t.Helper()
			if !aOK() || !bOK() || !btOK() || !wideOK() || !gotOK() {
				t.Fatalf("%s %dx%dx%d: wrote outside an operand", name, m, k, n)
			}
			if i := firstNaN(got.Data); i >= 0 {
				t.Fatalf("%s %dx%dx%d: elem %d is NaN — read outside an operand", name, m, k, n, i)
			}
			if d := bitwiseDiff(got, want); d >= 0 {
				t.Fatalf("%s %dx%dx%d: elem %d differs from the reference", name, m, k, n, d)
			}
		}

		got, gotOK := guardedRandn(m, n, rng)
		want := New(m, n)
		MatMulInto(got, a, b)
		matMulRef(want, a, b)
		check("MatMulInto", got, want, gotOK)

		got, gotOK = guardedRandn(m, n, rng)
		want = got.Clone()
		MatMulTransBAddInto(got, a, bt)
		matMulTransBRef(want, a, bt)
		check("MatMulTransBAddInto", got, want, gotOK)

		got, gotOK = guardedRandn(k, n, rng)
		want = got.Clone()
		MatMulTransAInto(got, a, wide)
		matMulTransARef(want, a, wide)
		check("MatMulTransAInto", got, want, gotOK)
	}
}

// TestMatMulTransBSteadyStateAllocFree pins the a @ bᵀ scratch discipline:
// the k-major copy of b comes from a free list, so a warm call allocates
// nothing — with or without the race detector.
func TestMatMulTransBSteadyStateAllocFree(t *testing.T) {
	rng := mathx.NewRNG(33)
	a := Randn(40, 24, 1, rng)
	b := Randn(48, 24, 1, rng)
	dst := New(40, 48)
	MatMulTransBAddInto(dst, a, b) // warm the free list
	if allocs := testing.AllocsPerRun(50, func() {
		MatMulTransBAddInto(dst, a, b)
	}); allocs != 0 {
		t.Fatalf("warm MatMulTransBAddInto allocates %.1f times per call, want 0", allocs)
	}
}
