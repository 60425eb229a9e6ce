// Package sampler implements the temporal neighbor finders compared in the
// paper (§II-A, §III-C, Fig. 3a):
//
//   - Origin: the sequential per-node finder shipped with TGAT/GraphMixer,
//     which locates the temporal pivot with a linear scan. It is the
//     baseline in Fig. 1 and Fig. 3(a).
//   - TGL: the parallel CPU finder from TGL, which keeps a per-node pointer
//     array so the pivot is found in amortized O(1) — but only when
//     mini-batches arrive in chronological order, which is exactly why it
//     cannot serve TASER's randomly ordered adaptive mini-batches.
//   - GPU: TASER's block-centric finder (Algorithm 2): one block per target
//     node, binary search for the pivot, and a bitmap for collision
//     detection in uniform sampling without replacement. It supports
//     arbitrary training order.
//
// All finders sample from N(v, t) = {(u, t_u) : t_u < t} under one of two
// static policies: uniform without replacement, or most-recent.
package sampler

import (
	"fmt"

	"taser/internal/mathx"
)

// Policy selects the static sampling distribution.
type Policy int

const (
	// Uniform samples without replacement from the whole temporal neighborhood.
	Uniform Policy = iota
	// MostRecent takes the latest interactions before t.
	MostRecent
	// InverseTimespan samples with probability ∝ 1/Δt — the human-defined
	// denoising heuristic TGAT proposed for deprecated links, which the
	// paper reports performing *worse* than uniform (§I). Included as the
	// heuristics baseline for the adaptive-vs-heuristic ablation.
	InverseTimespan
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case Uniform:
		return "uniform"
	case MostRecent:
		return "recent"
	case InverseTimespan:
		return "inverse-timespan"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// Target is a (node, time) pair whose temporal neighborhood is sampled.
type Target struct {
	Node int32
	Time float64
}

// Result holds sampled neighborhoods in flat, padded layout: target i owns
// entries [i·Budget, (i+1)·Budget). Entries beyond Counts[i] are padding with
// Node −1 and Eid −1. Reusing a Result across calls avoids allocation.
type Result struct {
	Budget int
	Nodes  []int32
	Times  []float64
	Eids   []int32
	Counts []int32
}

// Reset shapes the result for n targets with the given budget.
func (r *Result) Reset(n, budget int) {
	size := n * budget
	if cap(r.Nodes) < size {
		r.Nodes = make([]int32, size)
		r.Times = make([]float64, size)
		r.Eids = make([]int32, size)
	}
	r.Nodes = r.Nodes[:size]
	r.Times = r.Times[:size]
	r.Eids = r.Eids[:size]
	if cap(r.Counts) < n {
		r.Counts = make([]int32, n)
	}
	r.Counts = r.Counts[:n]
	r.Budget = budget
	for i := range r.Nodes {
		r.Nodes[i] = -1
		r.Eids[i] = -1
		r.Times[i] = 0
	}
	for i := range r.Counts {
		r.Counts[i] = 0
	}
}

// NumTargets reports how many targets the result currently holds.
func (r *Result) NumTargets() int {
	if r.Budget == 0 {
		return 0
	}
	return len(r.Nodes) / r.Budget
}

// Slot returns the flat index of target i's j-th neighbor entry.
func (r *Result) Slot(i, j int) int { return i*r.Budget + j }

// Finder samples fixed-size temporal neighborhoods for a batch of targets.
type Finder interface {
	// Sample fills out with up to budget neighbors per target drawn from
	// each target's temporal neighborhood under policy.
	Sample(targets []Target, budget int, policy Policy, out *Result) error
	// Name identifies the finder in benchmark output.
	Name() string
	// ArbitraryOrder reports whether targets may arrive in any time order.
	ArbitraryOrder() bool
}

// fillScratch holds the per-call working buffers of the fill kernels (index
// arrays, rejection bitmaps, heuristic weights) so steady-state sampling does
// not touch the heap. It mirrors a CUDA kernel's shared-memory workspace: one
// instance per concurrently executing worker, never shared.
type fillScratch struct {
	idx     []int32
	bitmap  []uint64
	weights []float64
	chosen  []int
	ws      mathx.WeightedSampler
}

// int32s returns a zero-length int32 slice with capacity ≥ n backed by buf.
func (sc *fillScratch) int32s(n int) []int32 {
	if cap(sc.idx) < n {
		sc.idx = make([]int32, n)
	}
	return sc.idx[:n]
}

// words returns a zeroed uint64 slice of length n.
func (sc *fillScratch) words(n int) []uint64 {
	if cap(sc.bitmap) < n {
		sc.bitmap = make([]uint64, n)
		return sc.bitmap[:n]
	}
	w := sc.bitmap[:n]
	for i := range w {
		w[i] = 0
	}
	return w
}

// floats returns an uninitialized float64 slice of length n.
func (sc *fillScratch) floats(n int) []float64 {
	if cap(sc.weights) < n {
		sc.weights = make([]float64, n)
	}
	return sc.weights[:n]
}

// fillMostRecent writes the newest min(budget, pivot) entries, newest first.
func fillMostRecent(out *Result, i int, nbr []int32, ts []float64, eid []int32, pivot, budget int) {
	k := min(budget, pivot)
	for j := 0; j < k; j++ {
		s := out.Slot(i, j)
		idx := pivot - 1 - j
		out.Nodes[s] = nbr[idx]
		out.Times[s] = ts[idx]
		out.Eids[s] = eid[idx]
	}
	out.Counts[i] = int32(k)
}

// fillUniform samples min(budget, pivot) distinct candidate indices from
// [0, pivot) and writes them. It uses bitmap rejection when the budget is
// small relative to the neighborhood (the GPU kernel's strategy, Algorithm 2
// line 13) and a partial Fisher–Yates when it is not, so the cost stays
// bounded near k ≈ pivot.
func fillUniform(out *Result, i int, nbr []int32, ts []float64, eid []int32, pivot, budget int, rng *mathx.RNG, sc *fillScratch) {
	k := min(budget, pivot)
	switch {
	case k == pivot:
		for j := 0; j < k; j++ {
			s := out.Slot(i, j)
			out.Nodes[s] = nbr[j]
			out.Times[s] = ts[j]
			out.Eids[s] = eid[j]
		}
	case k > pivot/2:
		// Partial Fisher–Yates over an explicit index array.
		idx := sc.int32s(pivot)
		for j := range idx {
			idx[j] = int32(j)
		}
		for j := 0; j < k; j++ {
			swap := j + rng.Intn(pivot-j)
			idx[j], idx[swap] = idx[swap], idx[j]
			s := out.Slot(i, j)
			out.Nodes[s] = nbr[idx[j]]
			out.Times[s] = ts[idx[j]]
			out.Eids[s] = eid[idx[j]]
		}
	default:
		// Shared-memory bitmap with atomic-free rejection (single goroutine
		// per block, so plain writes suffice).
		words := (pivot + 63) / 64
		bitmap := sc.words(words)
		for j := 0; j < k; j++ {
			for {
				r := rng.Intn(pivot)
				w, b := r/64, uint(r%64)
				if bitmap[w]&(1<<b) != 0 {
					continue
				}
				bitmap[w] |= 1 << b
				s := out.Slot(i, j)
				out.Nodes[s] = nbr[r]
				out.Times[s] = ts[r]
				out.Eids[s] = eid[r]
				break
			}
		}
	}
	out.Counts[i] = int32(k)
}

// fillInverseTimespan draws min(budget, pivot) distinct entries with
// probability ∝ 1/(Δt + 1), the TGAT heuristic for deprecated links.
func fillInverseTimespan(out *Result, i int, nbr []int32, ts []float64, eid []int32, pivot, budget int, tTarget float64, rng *mathx.RNG, sc *fillScratch) {
	k := min(budget, pivot)
	weights := sc.floats(pivot)
	for j := 0; j < pivot; j++ {
		weights[j] = 1 / (tTarget - ts[j] + 1)
	}
	sc.chosen = sc.ws.SampleInto(rng, weights, k, sc.chosen)
	for j, idx := range sc.chosen {
		s := out.Slot(i, j)
		out.Nodes[s] = nbr[idx]
		out.Times[s] = ts[idx]
		out.Eids[s] = eid[idx]
	}
	out.Counts[i] = int32(k)
}

// fill dispatches on policy; every finder shares this kernel body.
func fill(policy Policy, out *Result, i int, nbr []int32, ts []float64, eid []int32, pivot, budget int, tTarget float64, rng *mathx.RNG, sc *fillScratch) {
	switch policy {
	case MostRecent:
		fillMostRecent(out, i, nbr, ts, eid, pivot, budget)
	case InverseTimespan:
		fillInverseTimespan(out, i, nbr, ts, eid, pivot, budget, tTarget, rng, sc)
	default:
		fillUniform(out, i, nbr, ts, eid, pivot, budget, rng, sc)
	}
}

// validate shapes the output and checks common preconditions.
func validate(targets []Target, budget int, out *Result) error {
	if budget <= 0 {
		return fmt.Errorf("sampler: non-positive budget %d", budget)
	}
	out.Reset(len(targets), budget)
	return nil
}
