package tensor

// The register tile under every dense matmul.
//
// One tile call walks a 4-lane panel of dst, 8 columns at a time, for
// `blocks` consecutive 4×8 blocks; block bj produces
//
//	dst[l*ldd + 8bj+c]  ⟵  Σ_kk  a[l*lane + kk*kstep] · b[kk*ldb + 8bj+c]  (+ bias[8bj+c])
//
// for l < 4, c < 8, kk < k, with the block's 32 sums held in registers
// (eight 4-wide YMM accumulators in the AVX2 routine) across the whole k
// loop. Every block of a panel reads the same four lanes of a. The lane and
// k strides of a are independent, so one kernel serves all three products:
//
//	a @ b    lane = a.Cols, kstep = 1       (a lane is a row of a)
//	aᵀ @ b   lane = 1,      kstep = a.Cols  (a lane is a column of a)
//	a @ bᵀ   as a @ b against a k-major copy of b (matmul.go)
//
// Contract, shared by the assembly routine and its Go twin and pinned by
// TestTileAsmMatchesGoBitwise: every output element is accumulated
// k-ascending, one rounded multiply then one rounded add per step — never a
// fused multiply-add — which is exactly the sequence of the straight-line
// scalar loop. A non-nil bias is then added with one rounded add, after the
// mode's own start and landing: the sequence of the product followed by a
// separate row-vector add. Only the grouping of elements into registers
// differs, so the tile is bitwise-identical to those loops (NaN payloads
// aside) and it does not matter to a caller which implementation ran.
type tileMode int

const (
	tileStore tileMode = iota // dst = (0 + p₀ + p₁ + …) + b         (a @ b)
	tileAccum                 // dst = (dst + p₀ + p₁ + …) + b       (aᵀ @ b gradient accumulation)
	tileAdd                   // dst = (dst + (0 + p₀ + p₁ + …)) + b (dst += a @ bᵀ)
)

// tile runs one panel of `blocks` 4×8 blocks on whichever implementation
// the CPU supports (haveTileAsm, decided once at package init from CPUID).
// A nil bias adds nothing. Memory safety lives here, not in the assembly:
// the wrapper takes slices and indexes the last element each operand will
// touch, once per panel, so a short operand panics before the unchecked
// routine runs. Strides are non-negative, which makes the last index also
// the largest.
func tile(dst []float64, ldd int, a []float64, lane, kstep int, b []float64, ldb, k, blocks int, bias []float64, mode tileMode) {
	if ldd|lane|kstep|ldb|k < 0 || blocks < 1 {
		panic("tensor: tile with negative stride or depth, or no block")
	}
	w := 8 * blocks
	_ = dst[3*ldd+w-1]
	var pb *float64
	if bias != nil {
		_ = bias[w-1]
		pb = &bias[0]
	}
	if k > 0 { // depth 0 touches neither a nor b, and has no element to point at
		_ = a[3*lane+(k-1)*kstep]
		_ = b[(k-1)*ldb+w-1]
		if haveTileAsm {
			tileAVX2(&dst[0], ldd, &a[0], lane, kstep, &b[0], ldb, k, blocks, pb, int(mode))
			return
		}
	}
	tileGo(dst, ldd, a, lane, kstep, b, ldb, k, blocks, bias, mode)
}

// tileGo is the pure-Go twin of tileAVX2: the implementation on CPUs without
// AVX2 and on every other architecture, and the reference the assembly is
// tested against. It walks the panel one block at a time.
func tileGo(dst []float64, ldd int, a []float64, lane, kstep int, b []float64, ldb, k, blocks int, bias []float64, mode tileMode) {
	for j := 0; j < 8*blocks; j += 8 {
		var bv *[8]float64
		if bias != nil {
			bv = (*[8]float64)(bias[j : j+8])
		}
		tileGoBlock(dst[j:], ldd, a, lane, kstep, b, j, ldb, k, bv, mode)
	}
}

// tileGoBlock is one block of tileGo, columns j0… of b: one lane at a time
// with that lane's eight sums in scalar registers, bv (nil: no bias) added
// before the store. It stays a function of its own so that the panel loop's
// state does not compete with the k loop for registers: written as one loop
// nest, the twin ran 6–15 % slower on BenchmarkMatMul's shapes (Intel Xeon,
// go1.24). The float64(…) conversions forbid the compiler from
// fusing the multiply into the add (it would on arm64; amd64 never fuses
// x*y+z, at any GOAMD64), so the twin rounds like the assembly.
func tileGoBlock(dst []float64, ldd int, a []float64, lane, kstep int, b []float64, j0, ldb, k int, bv *[8]float64, mode tileMode) {
	for l := 0; l < 4; l++ {
		d := (*[8]float64)(dst[l*ldd : l*ldd+8])
		var c0, c1, c2, c3, c4, c5, c6, c7 float64
		if mode == tileAccum {
			c0, c1, c2, c3, c4, c5, c6, c7 = d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7]
		}
		ai, bi := l*lane, j0
		for kk := 0; kk < k; kk++ {
			av := a[ai]
			bk := (*[8]float64)(b[bi : bi+8])
			c0 += float64(av * bk[0])
			c1 += float64(av * bk[1])
			c2 += float64(av * bk[2])
			c3 += float64(av * bk[3])
			c4 += float64(av * bk[4])
			c5 += float64(av * bk[5])
			c6 += float64(av * bk[6])
			c7 += float64(av * bk[7])
			ai += kstep
			bi += ldb
		}
		if mode == tileAdd {
			c0, c1, c2, c3, c4, c5, c6, c7 = d[0]+c0, d[1]+c1, d[2]+c2, d[3]+c3, d[4]+c4, d[5]+c5, d[6]+c6, d[7]+c7
		}
		if bv != nil {
			c0, c1, c2, c3, c4, c5, c6, c7 = c0+bv[0], c1+bv[1], c2+bv[2], c3+bv[3], c4+bv[4], c5+bv[5], c6+bv[6], c7+bv[7]
		}
		d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7] = c0, c1, c2, c3, c4, c5, c6, c7
	}
}

// tilePart runs one block of the tile on a copy of its 4×8 dst block and
// commits only lanes ≥ l0 and columns ≥ c0: the form tileRows uses for a
// block shifted back over rows or columns an earlier block already owns.
// Every operand index stays inside the range the full block at this
// position would touch. bias starts at the block's first column.
func tilePart(dst []float64, ldd int, a []float64, lane, kstep int, b []float64, ldb, k int, bias []float64, mode tileMode, l0, c0 int) {
	var tmp [32]float64
	for l := 0; l < 4; l++ {
		copy(tmp[l*8:l*8+8], dst[l*ldd:l*ldd+8])
	}
	tile(tmp[:], 8, a, lane, kstep, b, ldb, k, 1, bias, mode)
	for l := l0; l < 4; l++ {
		copy(dst[l*ldd+c0:l*ldd+8], tmp[l*8+c0:l*8+8])
	}
}
