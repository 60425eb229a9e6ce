package mathx

import (
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must yield same stream")
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatal("adjacent seeds must not collide")
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestIntnUniform(t *testing.T) {
	r := NewRNG(4)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := draws / n
	for i, c := range counts {
		if math.Abs(float64(c-want)) > 0.1*float64(want) {
			t.Fatalf("bucket %d count %d far from %d", i, c, want)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewRNG(5)
	const n = 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.02 || math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal moments mean=%v var=%v", mean, variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		r := NewRNG(seed)
		n := 1 + int(seed%50)
		p := r.Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitIndependence(t *testing.T) {
	r := NewRNG(6)
	a := r.Split()
	b := r.Split()
	if a.Uint64() == b.Uint64() {
		t.Fatal("split streams should differ")
	}
}

func TestSigmoid(t *testing.T) {
	if Sigmoid(0) != 0.5 {
		t.Fatal("sigmoid(0)")
	}
	if Sigmoid(1000) != 1 || Sigmoid(-1000) != 0 {
		t.Fatal("sigmoid must saturate without NaN")
	}
	// Symmetry property.
	err := quick.Check(func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
		return math.Abs(Sigmoid(x)+Sigmoid(-x)-1) < 1e-12
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestGELUGradMatchesFiniteDiff(t *testing.T) {
	for _, x := range []float64{-3, -1, -0.1, 0, 0.1, 1, 3} {
		const h = 1e-6
		up, _ := GELUTanh(x + h)
		down, _ := GELUTanh(x - h)
		fd := (up - down) / (2 * h)
		_, th := GELUTanh(x)
		if an := GELUGradTanh(x, th); math.Abs(fd-an) > 1e-5 {
			t.Fatalf("GELUGradTanh(%v)=%v finite diff %v", x, an, fd)
		}
	}
}

// TestGELUPairMatchesOneShotFormulas pins the value/tanh pair bit for bit to
// the self-contained formulas it replaced (kept here as the oracle): GELU's
// value, and the gradient that recomputed its own tanh. Training trajectories
// are pinned bitwise, so the stashed tanh must be the one a recomputation
// would have produced.
func TestGELUPairMatchesOneShotFormulas(t *testing.T) {
	const c = 0.7978845608028654
	gelu := func(x float64) float64 { return 0.5 * x * (1 + math.Tanh(c*(x+0.044715*x*x*x))) }
	geluGrad := func(x float64) float64 {
		inner := c * (x + 0.044715*x*x*x)
		th := math.Tanh(inner)
		sech2 := 1 - th*th
		return 0.5*(1+th) + 0.5*x*sech2*c*(1+3*0.044715*x*x)
	}
	rng := NewRNG(31)
	xs := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), 1e-300, -1e300}
	for i := 0; i < 200000; i++ {
		xs = append(xs, rng.NormFloat64()*math.Pow(10, float64(i%7-3)))
	}
	for _, x := range xs {
		y, th := GELUTanh(x)
		if math.Float64bits(y) != math.Float64bits(gelu(x)) {
			t.Fatalf("GELU(%v): pair %v, one-shot %v", x, y, gelu(x))
		}
		if got, want := GELUGradTanh(x, th), geluGrad(x); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("GELU'(%v): from the stored tanh %v, recomputed %v", x, got, want)
		}
	}
}

func TestLeakyReLU(t *testing.T) {
	if LeakyReLU(2, 0.2) != 2 || LeakyReLU(-2, 0.2) != -0.4 {
		t.Fatal("LeakyReLU")
	}
}

// The three tests below draw through WeightedSampler.SampleInto, the sampler
// the adaptive neighbor selection runs.
func TestWeightedSampleNoReplaceDistinct(t *testing.T) {
	var ws WeightedSampler
	err := quick.Check(func(seed uint64) bool {
		r := NewRNG(seed)
		n := 2 + int(seed%20)
		weights := make([]float64, n)
		for i := range weights {
			weights[i] = r.Float64() + 0.01
		}
		k := 1 + int(seed>>8)%n
		got := ws.SampleInto(r, weights, k, nil)
		if len(got) != k {
			return false
		}
		seen := map[int]bool{}
		for _, i := range got {
			if i < 0 || i >= n || seen[i] {
				return false
			}
			seen[i] = true
		}
		return true
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWeightedSampleNoReplaceSkipsZeros(t *testing.T) {
	var ws WeightedSampler
	r := NewRNG(8)
	weights := []float64{0, 1, 0, 1, 0}
	for trial := 0; trial < 100; trial++ {
		got := ws.SampleInto(r, weights, 2, nil)
		for _, i := range got {
			if i != 1 && i != 3 {
				t.Fatalf("selected zero-weight index %d", i)
			}
		}
	}
	// Asking for more than available truncates.
	if got := ws.SampleInto(r, weights, 4, nil); len(got) != 2 {
		t.Fatalf("want truncation to 2, got %d", len(got))
	}
}

func TestWeightedSampleBiasTowardHeavy(t *testing.T) {
	var ws WeightedSampler
	var out []int
	r := NewRNG(9)
	weights := []float64{1, 1, 1, 1, 16}
	heavy := 0
	const trials = 20000
	for i := 0; i < trials; i++ {
		out = ws.SampleInto(r, weights, 1, out)
		if out[0] == 4 {
			heavy++
		}
	}
	frac := float64(heavy) / trials
	if frac < 0.75 || frac > 0.85 { // expect 16/20 = 0.8
		t.Fatalf("heavy item frequency %v, want ~0.8", frac)
	}
}

func TestAliasMatchesWeights(t *testing.T) {
	r := NewRNG(10)
	weights := []float64{5, 1, 3, 1}
	a := NewAlias(weights)
	counts := make([]int, len(weights))
	const draws = 200000
	for i := 0; i < draws; i++ {
		counts[a.Draw(r)]++
	}
	for i, w := range weights {
		want := w / 10 * draws
		if math.Abs(float64(counts[i])-want) > 0.05*draws {
			t.Fatalf("alias bucket %d: %d want ~%v", i, counts[i], want)
		}
	}
}

func TestAliasPanics(t *testing.T) {
	for _, weights := range [][]float64{{}, {0, 0}, {-1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for %v", weights)
				}
			}()
			NewAlias(weights)
		}()
	}
}

// sortedDraw is SampleInto as it was before the top-k heap: every positive
// weight's key drawn in index order, then all of them sorted by descending
// key (equal keys by ascending index) and the first k kept.
func sortedDraw(r *RNG, weights []float64, k int) []int {
	var keys []float64
	var idx []int
	for i, w := range weights {
		if w > 0 {
			keys, idx = append(keys, math.Log(r.Float64())/w), append(idx, i)
		}
	}
	order := make([]int, len(idx))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return keys[order[a]] > keys[order[b]] })
	out := []int{}
	for _, o := range order[:min(k, len(order))] {
		out = append(out, idx[o])
	}
	return out
}

// TestTopKDrawMatchesFullSort: the heap draw returns the indices a full sort
// of every key returns, in the same order, and leaves the RNG where the full
// draw leaves it — for k ≪ n (the mini-batch draw), k = n, fewer positive
// weights than k, zero weights among them, and k = 0. Equal keys come out
// in ascending index order: +Inf weights give every key −0.
func TestTopKDrawMatchesFullSort(t *testing.T) {
	var ws WeightedSampler
	var out []int
	gen := NewRNG(31)
	weights := func(n int, zeros float64) []float64 {
		w := make([]float64, n)
		for i := range w {
			if gen.Float64() >= zeros {
				w[i] = gen.Float64() * 3
			}
		}
		return w
	}
	for _, tc := range []struct {
		name string
		w    []float64
		k    int
	}{
		{"k much less than n", weights(6300, 0), 32},
		{"k much less than n, zeros", weights(6300, 0.3), 32},
		{"k = n", weights(25, 0), 25},
		{"k = n, zeros", weights(25, 0.4), 25},
		{"fewer positive weights than k", weights(25, 0.8), 10},
		{"all zero", make([]float64, 12), 4},
		{"k = 0", weights(25, 0), 0},
		{"one item", []float64{0.5}, 1},
		{"ties", []float64{math.Inf(1), 0, math.Inf(1), math.Inf(1), math.Inf(1)}, 3},
	} {
		for seed := uint64(1); seed <= 20; seed++ {
			r, ref := NewRNG(seed), NewRNG(seed)
			out = ws.SampleInto(r, tc.w, tc.k, out)
			want := sortedDraw(ref, tc.w, tc.k)
			if !slices.Equal(out, want) {
				t.Fatalf("%s, seed %d: heap draw %v, full sort %v", tc.name, seed, out, want)
			}
			if a, b := r.Uint64(), ref.Uint64(); a != b {
				t.Fatalf("%s, seed %d: the RNG moved differently (%x after the heap draw, %x after the sort)", tc.name, seed, a, b)
			}
		}
	}
	if got := ws.SampleInto(NewRNG(1), []float64{math.Inf(1), 0, math.Inf(1), math.Inf(1)}, 2, nil); !slices.Equal(got, []int{0, 2}) {
		t.Fatalf("equal keys: got %v, want ascending indices [0 2]", got)
	}
}

// TestTopKDrawSteadyStateAllocFree: a warm sampler drawing into a warm out
// slice allocates nothing.
func TestTopKDrawSteadyStateAllocFree(t *testing.T) {
	var ws WeightedSampler
	r := NewRNG(5)
	w := make([]float64, 6300)
	for i := range w {
		w[i] = r.Float64()
	}
	out := ws.SampleInto(r, w, 32, nil)
	if n := testing.AllocsPerRun(50, func() { out = ws.SampleInto(r, w, 32, out) }); n != 0 {
		t.Fatalf("%v allocations per warm draw", n)
	}
}
