package encoding

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTimeEncoderZeroDelta(t *testing.T) {
	e := NewTimeEncoder(8, 0, 0)
	dst := make([]float64, 8)
	e.Encode(dst, 0)
	for _, v := range dst {
		if v != 1 {
			t.Fatal("Φ(0) must be all ones (cos 0)")
		}
	}
}

func TestTimeEncoderRange(t *testing.T) {
	e := NewTimeEncoder(16, 0, 0)
	dst := make([]float64, 16)
	for _, dt := range []float64{0.1, 1, 100, 1e6, -3e9} {
		e.Encode(dst, dt)
		for i, v := range dst {
			if v < -1 || v > 1 {
				t.Fatalf("encoding[%d]=%v out of [-1,1]", i, v)
			}
			// Eq. 8 to the bit, whichever cosine kernel runs underneath.
			if want := math.Cos(dt * e.omega[i]); math.Float64bits(v) != math.Float64bits(want) {
				t.Fatalf("encoding[%d] of Δt=%v is %v, math.Cos gives %v", i, dt, v, want)
			}
		}
	}
}

// TestEncodeRowsIsEq8 holds the block form to math.Cos(Δt·ω), bit for bit:
// row widths that are no multiple of 4 put row boundaries inside the cosine
// kernel's four-element groups, and a NaN or huge Δt sends its group to the
// Go path among ordinary neighbours.
func TestEncodeRowsIsEq8(t *testing.T) {
	dts := []float64{0, 0.5, -3, 1e6, 7e8, math.NaN(), 2, math.Inf(1), 1e-3, 86400, -1}
	for _, d := range []int{1, 3, 5, 8, 13} {
		e := NewTimeEncoder(d, 0, 0)
		for n := 0; n <= len(dts); n++ {
			block := make([]float64, n*d)
			e.EncodeRows(block, dts[:n])
			for k, got := range block {
				dt := dts[k/d]
				want := math.Cos(dt * e.omega[k%d])
				if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
					t.Fatalf("d=%d n=%d: row %d element %d (Δt=%v) is %v, math.Cos gives %v", d, n, k/d, k%d, dt, got, want)
				}
			}
		}
	}
}

func TestTimeEncoderFrequencySpectrum(t *testing.T) {
	// ω must be strictly decreasing: early dims oscillate fast (fine time
	// resolution), later dims slowly (coarse resolution).
	e := NewTimeEncoder(10, 0, 0)
	for i := 1; i < len(e.omega); i++ {
		if e.omega[i] >= e.omega[i-1] {
			t.Fatal("omega must decrease")
		}
	}
	if e.omega[0] != 1 {
		t.Fatalf("omega[0]=%v want 1", e.omega[0])
	}
}

func TestTimeEncoderDistinguishesScales(t *testing.T) {
	e := NewTimeEncoder(32, 0, 0)
	a := make([]float64, 32)
	b := make([]float64, 32)
	e.Encode(a, 1)
	e.Encode(b, 1000)
	var dist float64
	for i := range a {
		dist += (a[i] - b[i]) * (a[i] - b[i])
	}
	if math.Sqrt(dist) < 0.5 {
		t.Fatal("very different timespans must encode differently")
	}
}

func TestFreqEncoderDeterministicAndBounded(t *testing.T) {
	e := NewFreqEncoder(8, 4)
	if e.Dim() != 8 {
		t.Fatal("dim")
	}
	a := make([]float64, 8)
	b := make([]float64, 8)
	e.Encode(a, 3)
	e.Encode(b, 3)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("deterministic")
		}
		if a[i] < -1 || a[i] > 1 {
			t.Fatal("bounded")
		}
	}
}

func TestFreqEncoderSeparatesSmallCounts(t *testing.T) {
	e := NewFreqEncoder(16, 4)
	enc := func(f int) []float64 {
		dst := make([]float64, 16)
		e.Encode(dst, f)
		return dst
	}
	// Frequencies 1..10 must be pairwise distinguishable.
	for f1 := 1; f1 <= 10; f1++ {
		for f2 := f1 + 1; f2 <= 10; f2++ {
			a, b := enc(f1), enc(f2)
			var dist float64
			for i := range a {
				dist += math.Abs(a[i] - b[i])
			}
			if dist < 1e-3 {
				t.Fatalf("freq %d and %d encode identically", f1, f2)
			}
		}
	}
}

func TestFreqEncoderZeroFreq(t *testing.T) {
	e := NewFreqEncoder(4, 0)
	dst := make([]float64, 4)
	e.Encode(dst, 0)
	want := []float64{0, 1, 0, 1} // sin 0, cos 0 interleaved
	for i, w := range want {
		if dst[i] != w {
			t.Fatalf("zero-frequency encoding %v", dst)
		}
	}
}

// TestFreqEncoderTableIsTheComputation: a precomputed row is the evaluation
// it replaces, bit for bit, for every frequency the table holds, and the
// first one past it (and a negative one) still evaluates.
func TestFreqEncoderTableIsTheComputation(t *testing.T) {
	const d, m = 16, 25
	e := NewFreqEncoder(d, m)
	got, want := make([]float64, d), make([]float64, d)
	check := func(f int) {
		e.Encode(got, f)
		e.compute(want, f)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("freq %d dim %d: Encode %v, computed %v", f, i, got[i], want[i])
			}
		}
	}
	for f := -1; f <= m+1; f++ {
		check(f)
	}
	check(1000)
	if len(e.table) != (m+1)*d {
		t.Fatalf("table holds %d values, want %d rows of %d", len(e.table), m+1, d)
	}
}

func TestFrequenciesCounts(t *testing.T) {
	nodes := []int32{5, 3, 5, 5, -1, 3}
	out := make([]int, 6)
	Frequencies(nodes, out)
	want := []int{3, 2, 3, 3, 0, 2}
	for i, w := range want {
		if out[i] != w {
			t.Fatalf("Frequencies=%v", out)
		}
	}
}

func TestFrequenciesProperty(t *testing.T) {
	err := quick.Check(func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		nodes := make([]int32, len(raw))
		for i, r := range raw {
			nodes[i] = int32(r%5) - 1 // mix of -1 padding and ids 0..3
		}
		out := make([]int, len(nodes))
		Frequencies(nodes, out)
		for j, u := range nodes {
			if u < 0 {
				if out[j] != 0 {
					return false
				}
				continue
			}
			manual := 0
			for _, v := range nodes {
				if v == u {
					manual++
				}
			}
			if out[j] != manual {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Fatal(err)
	}
}

// identityMatrix stacks Identity's rows into the budget×budget encoding.
func identityMatrix(nodes []int32) []float64 {
	n := len(nodes)
	dst := make([]float64, n*n)
	for j := range nodes {
		Identity(nodes, j, dst[j*n:(j+1)*n])
	}
	return dst
}

func TestIdentityEncoding(t *testing.T) {
	nodes := []int32{7, 9, 7, -1}
	dst := identityMatrix(nodes)
	want := []float64{
		1, 0, 1, 0, // u0=7 matches positions 0 and 2
		0, 1, 0, 0, // u1=9 matches itself only
		1, 0, 1, 0, // u2=7 matches positions 0 and 2
		0, 0, 0, 0, // padding row is zero
	}
	for i, w := range want {
		if dst[i] != w {
			t.Fatalf("Identity row %d col %d = %v want %v", i/4, i%4, dst[i], w)
		}
	}
}

func TestIdentitySymmetricProperty(t *testing.T) {
	// IE is symmetric: IE(u_j, i) == IE(u_i, j) for non-padding entries.
	err := quick.Check(func(raw [6]uint8) bool {
		nodes := make([]int32, 6)
		for i, r := range raw {
			nodes[i] = int32(r % 4)
		}
		dst := identityMatrix(nodes)
		for i := 0; i < 6; i++ {
			if dst[i*6+i] != 1 {
				return false // diagonal must be 1 for non-padding
			}
			for j := 0; j < 6; j++ {
				if dst[i*6+j] != dst[j*6+i] {
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIdentityPanicsOnShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Identity([]int32{1, 2}, 0, make([]float64, 3))
}
