package tensor

import (
	"math"
	"runtime"
	"strings"
	"testing"

	"taser/internal/mathx"
)

// TestRowKernelsDegenerateShapes pins the uniform degenerate-shape policy:
// zero rows or zero columns are a no-op (SoftmaxRowsInto used to panic
// indexing in[0] of an empty row), and LayerNorm writes no statistics for
// zero-width rows.
func TestRowKernelsDegenerateShapes(t *testing.T) {
	// Zero columns.
	SoftmaxRowsInto(New(3, 0), New(3, 0))
	mean := []float64{-7, -7, -7}
	invStd := []float64{-7, -7, -7}
	LayerNormRowsInto(New(3, 0), New(3, 0), New(1, 0), New(1, 0), mean, invStd, 1e-5)
	for i := range mean {
		if mean[i] != -7 || invStd[i] != -7 {
			t.Fatal("LayerNorm wrote statistics for zero-width rows")
		}
	}
	// Zero rows.
	SoftmaxRowsInto(New(0, 5), New(0, 5))
	LayerNormRowsInto(New(0, 5), New(0, 5), New(1, 5), New(1, 5), nil, nil, 1e-5)

	// Zero-width grouped kernels.
	GroupedWeightedSumInto(New(2, 0), FromSlice(2, 2, []float64{1, 2, 3, 4}), New(4, 0), everySlot(4), 2)
	GroupedMatMulLeftInto(New(4, 0), FromSlice(2, 2, []float64{1, 2, 3, 4}), New(4, 0), 2)
	scores := FromSlice(2, 2, []float64{9, 9, 9, 9})
	GroupedScoreInto(scores, New(2, 0), New(4, 0), everySlot(4), 2)
	for _, v := range scores.Data {
		if v != 0 {
			t.Fatal("zero-width embeddings must score 0")
		}
	}
	// Zero groups (empty batch).
	GroupedScoreInto(New(0, 2), New(0, 3), New(0, 3), nil, 2)
	GroupedWeightedSumInto(New(0, 3), New(0, 2), New(0, 3), nil, 2)
	GroupMeanInto(New(0, 3), New(0, 3), nil, 2)
}

// TestGroupedKernelsPanicOnNonPositiveGroup pins the other half of the
// policy: an invalid grouping parameter is a programming error and panics
// with an explicit message rather than dividing by zero downstream.
func TestGroupedKernelsPanicOnNonPositiveGroup(t *testing.T) {
	cases := map[string]func(group int){
		"GroupMeanInto":          func(g int) { GroupMeanInto(New(2, 2), New(4, 2), everySlot(4), g) },
		"GroupedScoreInto":       func(g int) { GroupedScoreInto(New(2, 2), New(2, 3), New(4, 3), everySlot(4), g) },
		"GroupedWeightedSumInto": func(g int) { GroupedWeightedSumInto(New(2, 3), New(2, 2), New(4, 3), everySlot(4), g) },
		"GroupedMatMulLeftInto":  func(g int) { GroupedMatMulLeftInto(New(4, 3), New(2, 2), New(4, 3), g) },
	}
	for name, f := range cases {
		for _, g := range []int{0, -1} {
			func() {
				defer func() {
					r := recover()
					if r == nil {
						t.Fatalf("%s(group=%d): expected panic", name, g)
					}
					if !strings.Contains(panicText(r), "must be positive") {
						t.Fatalf("%s(group=%d): panic %v lacks explicit message", name, g, r)
					}
				}()
				f(g)
			}()
		}
	}
}

func panicText(v any) string {
	if s, ok := v.(string); ok {
		return s
	}
	if e, ok := v.(error); ok {
		return e.Error()
	}
	return ""
}

// grouped references: one naive loop per kernel, group-agnostic.
func groupedScoreNaive(scores, q, keys *Matrix, group int) {
	for g := 0; g < q.Rows; g++ {
		for k := 0; k < group; k++ {
			var s float64
			for j := 0; j < keys.Cols; j++ {
				s += q.At(g, j) * keys.At(g*group+k, j)
			}
			scores.Set(g, k, s)
		}
	}
}

func groupedWeightedSumNaive(dst, w, vals *Matrix, group int) {
	for g := 0; g < dst.Rows; g++ {
		for j := 0; j < dst.Cols; j++ {
			var s float64
			for k := 0; k < group; k++ {
				s += w.At(g, k) * vals.At(g*group+k, j)
			}
			dst.Set(g, j, s)
		}
	}
}

func groupedMatMulLeftNaive(dst, w, src *Matrix, group int) {
	k2 := w.Rows
	b := src.Rows / group
	for g := 0; g < b; g++ {
		for i := 0; i < k2; i++ {
			for j := 0; j < src.Cols; j++ {
				var s float64
				for k := 0; k < group; k++ {
					s += w.At(i, k) * src.At(g*group+k, j)
				}
				dst.Set(g*k2+i, j, s)
			}
		}
	}
}

// TestGroupedKernelsBoundaryGroups covers group=1 (every row its own group)
// and group = total rows (one group spans the matrix) for each grouped
// kernel, against naive references.
func TestGroupedKernelsBoundaryGroups(t *testing.T) {
	rng := mathx.NewRNG(21)
	const rows, d = 12, 7
	keys := Randn(rows, d, 1, rng)
	vals := Randn(rows, d, 1, rng)
	for _, group := range []int{1, rows} {
		b := rows / group
		q := Randn(b, d, 1, rng)
		scores := New(b, group)
		GroupedScoreInto(scores, q, keys, everySlot(rows), group)
		wantScores := New(b, group)
		groupedScoreNaive(wantScores, q, keys, group)
		if !scores.Equal(wantScores, 1e-12) {
			t.Fatalf("GroupedScore group=%d mismatch", group)
		}

		w := Randn(b, group, 1, rng)
		sum := New(b, d)
		GroupedWeightedSumInto(sum, w, vals, everySlot(rows), group)
		wantSum := New(b, d)
		groupedWeightedSumNaive(wantSum, w, vals, group)
		if !sum.Equal(wantSum, 1e-12) {
			t.Fatalf("GroupedWeightedSum group=%d mismatch", group)
		}

		const k2 = 5
		mix := Randn(k2, group, 1, rng)
		out := New(b*k2, d)
		GroupedMatMulLeftInto(out, mix, vals, group)
		wantOut := New(b*k2, d)
		groupedMatMulLeftNaive(wantOut, mix, vals, group)
		if !out.Equal(wantOut, 1e-12) {
			t.Fatalf("GroupedMatMulLeft group=%d mismatch", group)
		}

		m := New(b, d)
		GroupMeanInto(m, vals, everySlot(rows), group)
		for g := 0; g < b; g++ {
			for j := 0; j < d; j++ {
				var s float64
				for k := 0; k < group; k++ {
					s += vals.At(g*group+k, j)
				}
				if math.Abs(m.At(g, j)-s/float64(group)) > 1e-12 {
					t.Fatalf("GroupMean group=%d mismatch", group)
				}
			}
		}
	}
}

// TestGroupedMatMulLeftParallelSerialAtCrossover forces multiple workers and
// pins bitwise parallel-vs-serial equivalence for the one parallelized
// grouped kernel, exactly at the parallelThreshold work crossover.
func TestGroupedMatMulLeftParallelSerialAtCrossover(t *testing.T) {
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)
	rng := mathx.NewRNG(22)
	const k2, group, c = 16, 16, 16
	// work = b·k2·group·c: b=15 below 1<<16, 16 exactly at, 17 above.
	for _, b := range []int{15, 16, 17} {
		w := Randn(k2, group, 1, rng)
		src := Randn(b*group, c, 1, rng)
		runtime.GOMAXPROCS(1)
		serial := New(b*k2, c)
		GroupedMatMulLeftInto(serial, w, src, group)
		runtime.GOMAXPROCS(4)
		parallel := New(b*k2, c)
		GroupedMatMulLeftInto(parallel, w, src, group)
		if d := bitwiseDiff(serial, parallel); d >= 0 {
			t.Fatalf("b=%d: parallel differs from serial at elem %d", b, d)
		}
	}
}
