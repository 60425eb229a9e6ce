package tensor

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"taser/internal/mathx"
)

// everySlot names all n slots of a padded layout: the neighborhood
// reductions' dense form.
func everySlot(n int) []int32 {
	slots := make([]int32, n)
	for i := range slots {
		slots[i] = int32(i)
	}
	return slots
}

func TestSoftmaxRows(t *testing.T) {
	src := FromSlice(2, 3, []float64{1, 2, 3, 1000, 1000, 1000})
	dst := New(2, 3)
	SoftmaxRowsInto(dst, src)
	// Row 0: known values.
	e1, e2, e3 := math.Exp(1.0), math.Exp(2.0), math.Exp(3.0)
	sum := e1 + e2 + e3
	want := []float64{e1 / sum, e2 / sum, e3 / sum}
	for j, w := range want {
		if math.Abs(dst.At(0, j)-w) > 1e-12 {
			t.Fatalf("softmax[0][%d]=%v want %v", j, dst.At(0, j), w)
		}
	}
	// Row 1: overflow-safe uniform.
	for j := 0; j < 3; j++ {
		if math.Abs(dst.At(1, j)-1.0/3) > 1e-12 {
			t.Fatal("softmax must be stable for large inputs")
		}
	}
}

func TestSoftmaxRowsSumToOneProperty(t *testing.T) {
	rng := mathx.NewRNG(11)
	err := quick.Check(func(seed uint64) bool {
		r := 1 + int(seed%6)
		c := 1 + int((seed>>8)%8)
		src := Randn(r, c, 3, rng)
		dst := New(r, c)
		SoftmaxRowsInto(dst, src)
		for i := 0; i < r; i++ {
			var s float64
			for _, v := range dst.Row(i) {
				if v < 0 || v > 1 {
					return false
				}
				s += v
			}
			if math.Abs(s-1) > 1e-9 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Fatal(err)
	}
}

func TestLayerNormRows(t *testing.T) {
	src := FromSlice(1, 4, []float64{1, 2, 3, 4})
	g := New(1, 4)
	g.Fill(1)
	b := New(1, 4)
	dst := New(1, 4)
	mean := make([]float64, 1)
	invStd := make([]float64, 1)
	LayerNormRowsInto(dst, src, g, b, mean, invStd, 1e-5)
	var s, ss float64
	for _, v := range dst.Row(0) {
		s += v
		ss += v * v
	}
	if math.Abs(s) > 1e-9 {
		t.Fatalf("normalized row mean %v != 0", s/4)
	}
	if math.Abs(ss/4-1) > 1e-3 {
		t.Fatalf("normalized row var %v != 1", ss/4)
	}
	if mean[0] != 2.5 {
		t.Fatalf("saved mean %v", mean[0])
	}
}

func TestLayerNormGainBias(t *testing.T) {
	src := FromSlice(1, 2, []float64{-1, 1})
	g := FromSlice(1, 2, []float64{2, 2})
	b := FromSlice(1, 2, []float64{5, 5})
	dst := New(1, 2)
	LayerNormRowsInto(dst, src, g, b, nil, nil, 0)
	if math.Abs(dst.At(0, 0)-3) > 1e-9 || math.Abs(dst.At(0, 1)-7) > 1e-9 {
		t.Fatalf("gain/bias application: %v", dst.Row(0))
	}
}

func TestGatherScatterRoundtrip(t *testing.T) {
	src := FromSlice(3, 2, []float64{1, 2, 3, 4, 5, 6})
	idx := []int32{2, 0, 2}
	dst := New(3, 2)
	GatherRowsInto(dst, src, idx)
	if dst.At(0, 0) != 5 || dst.At(1, 0) != 1 || dst.At(2, 1) != 6 {
		t.Fatalf("gather: %v", dst)
	}
	acc := New(3, 2)
	ScatterAddRows(acc, dst, idx)
	// Row 2 received rows 0 and 2 of dst: (5+5, 6+6); row 0 received (1,2).
	if acc.At(2, 0) != 10 || acc.At(0, 0) != 1 || acc.At(1, 0) != 0 {
		t.Fatalf("scatter: %v", acc)
	}
}

// TestGatherRowsOneColumn covers the column path (TGAT's Δt gather): one
// element per row, repeats and any order allowed.
func TestGatherRowsOneColumn(t *testing.T) {
	src := FromSlice(4, 1, []float64{1, 2, 3, 4})
	dst := New(5, 1)
	GatherRowsInto(dst, src, []int32{3, 0, 3, 1, 2})
	if want := []float64{4, 1, 4, 2, 3}; fmt.Sprint(dst.Data) != fmt.Sprint(want) {
		t.Fatalf("gathered %v, want %v", dst.Data, want)
	}
}

// TestScatterRowsWritesEveryRowOnce: the named rows are copies, every other
// row is zeroed over whatever dst held, and an index that is not strictly
// ascending (or leaves the layout) panics.
func TestScatterRowsWritesEveryRowOnce(t *testing.T) {
	src := FromSlice(2, 2, []float64{1, 2, 3, 4})
	for _, idx := range [][]int32{{1, 3}, {0, 4}, {2, 3}, {}} {
		dst := New(5, 2)
		dst.Fill(math.NaN())
		ScatterRowsInto(dst, src.SliceRows(len(idx)), idx)
		want := New(5, 2)
		for i, id := range idx {
			copy(want.Row(int(id)), src.Row(i))
		}
		if bitwiseDiff(dst, want) >= 0 {
			t.Fatalf("idx %v: scattered %v, want %v", idx, dst.Data, want.Data)
		}
	}
	for _, idx := range [][]int32{{3, 1}, {2, 2}, {-1, 0}, {4, 5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("idx %v into 5 rows: expected panic", idx)
				}
			}()
			ScatterRowsInto(New(5, 2), src, idx)
		}()
	}
}

func TestConcatAndSliceCols(t *testing.T) {
	a := FromSlice(2, 1, []float64{1, 2})
	b := FromSlice(2, 2, []float64{3, 4, 5, 6})
	dst := New(2, 3)
	ConcatColsInto(dst, a, b)
	want := FromSlice(2, 3, []float64{1, 3, 4, 2, 5, 6})
	if !dst.Equal(want, 0) {
		t.Fatalf("concat: %v", dst)
	}
	for i := 0; i < 2; i++ {
		if got := dst.Row(i)[1:3]; got[0] != b.At(i, 0) || got[1] != b.At(i, 1) {
			t.Fatalf("columns [1,3) of row %d must read back b: %v", i, got)
		}
	}
}

func TestGroupMean(t *testing.T) {
	src := FromSlice(4, 2, []float64{1, 2, 3, 4, 10, 20, 30, 40})
	dst := New(2, 2)
	GroupMeanInto(dst, src, everySlot(4), 2)
	want := FromSlice(2, 2, []float64{2, 3, 20, 30})
	if !dst.Equal(want, 1e-12) {
		t.Fatalf("group mean: %v", dst)
	}
}

func TestGroupedScore(t *testing.T) {
	// 2 groups of 2 keys, d=2.
	q := FromSlice(2, 2, []float64{1, 0, 0, 1})
	keys := FromSlice(4, 2, []float64{1, 2, 3, 4, 5, 6, 7, 8})
	scores := New(2, 2)
	GroupedScoreInto(scores, q, keys, everySlot(4), 2)
	want := FromSlice(2, 2, []float64{1, 3, 6, 8})
	if !scores.Equal(want, 1e-12) {
		t.Fatalf("grouped score: %v", scores)
	}
}

func TestGroupedWeightedSum(t *testing.T) {
	w := FromSlice(2, 2, []float64{0.5, 0.5, 1, 0})
	vals := FromSlice(4, 2, []float64{2, 4, 6, 8, 1, 1, 9, 9})
	dst := New(2, 2)
	GroupedWeightedSumInto(dst, w, vals, everySlot(4), 2)
	want := FromSlice(2, 2, []float64{4, 6, 1, 1})
	if !dst.Equal(want, 1e-12) {
		t.Fatalf("grouped weighted sum: %v", dst)
	}
}

func TestGroupedMatMulLeftMatchesPerGroupMatMul(t *testing.T) {
	rng := mathx.NewRNG(12)
	const groups, k, k2, c = 3, 4, 5, 6
	w := Randn(k2, k, 1, rng)
	src := Randn(groups*k, c, 1, rng)
	dst := New(groups*k2, c)
	GroupedMatMulLeftInto(dst, w, src, k)
	for g := 0; g < groups; g++ {
		block := FromSlice(k, c, src.Data[g*k*c:(g+1)*k*c])
		want := New(k2, c)
		MatMulInto(want, w, block)
		got := FromSlice(k2, c, dst.Data[g*k2*c:(g+1)*k2*c])
		if !got.Equal(want, 1e-10) {
			t.Fatalf("group %d mismatch", g)
		}
	}
}

func TestGroupedShapePanics(t *testing.T) {
	cases := []func(){
		func() { GroupMeanInto(New(2, 2), New(5, 2), everySlot(4), 2) },
		func() { GroupedScoreInto(New(2, 2), New(2, 3), New(4, 2), everySlot(4), 2) },
		func() { GroupedWeightedSumInto(New(2, 2), New(2, 3), New(4, 2), everySlot(4), 2) },
		// Slots out of order, repeated, negative or past the layout.
		func() { GroupMeanInto(New(2, 2), New(2, 2), []int32{3, 1}, 2) },
		func() { GroupedScoreInto(New(2, 2), New(2, 3), New(2, 3), []int32{1, 1}, 2) },
		func() { GroupedWeightedSumInto(New(2, 3), New(2, 2), New(2, 3), []int32{-1, 2}, 2) },
		func() { GroupedScoreInto(New(2, 2), New(2, 3), New(2, 3), []int32{0, 4}, 2) },
		func() { GroupedMatMulLeftInto(New(4, 2), New(2, 3), New(4, 2), 2) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}
