package mathx

import (
	"math"
	"sort"
)

// WeightedSampler draws weighted samples without replacement, holding the
// key/index scratch so repeated draws are allocation-free once warm. Not safe
// for concurrent use; keep one per worker.
type WeightedSampler struct {
	keys []float64
	idx  []int
}

// Len, Less, Swap implement sort.Interface (descending key order).
func (ws *WeightedSampler) Len() int           { return len(ws.keys) }
func (ws *WeightedSampler) Less(a, b int) bool { return ws.keys[a] > ws.keys[b] }
func (ws *WeightedSampler) Swap(a, b int) {
	ws.keys[a], ws.keys[b] = ws.keys[b], ws.keys[a]
	ws.idx[a], ws.idx[b] = ws.idx[b], ws.idx[a]
}

// SampleInto draws k distinct indices from the unnormalized non-negative
// weights into out's backing array (grown as needed), using the
// Efraimidis–Spirakis exponential-key method: each item i receives key
// u_i^(1/w_i) and the k largest keys win. Items with zero weight are never
// selected; when fewer than k positive-weight items exist the result is
// truncated. The returned indices are in descending key order (effectively
// random order). It consumes one uniform variate per positive weight, in
// index order.
func (ws *WeightedSampler) SampleInto(r *RNG, weights []float64, k int, out []int) []int {
	ws.keys = ws.keys[:0]
	ws.idx = ws.idx[:0]
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		// log(u)/w is a monotone transform of u^(1/w); avoids pow.
		ws.keys = append(ws.keys, math.Log(r.Float64())/w)
		ws.idx = append(ws.idx, i)
	}
	if k > len(ws.idx) {
		k = len(ws.idx)
	}
	sort.Sort(ws)
	out = out[:0]
	return append(out, ws.idx[:k]...)
}

// Alias is Walker's alias method for O(1) draws from a fixed discrete
// distribution. Build cost is O(n).
type Alias struct {
	prob  []float64
	alias []int
}

// NewAlias builds an alias table from unnormalized non-negative weights.
func NewAlias(weights []float64) *Alias {
	n := len(weights)
	if n == 0 {
		panic("mathx: NewAlias with empty weights")
	}
	var total float64
	for _, w := range weights {
		if w < 0 {
			panic("mathx: NewAlias with negative weight")
		}
		total += w
	}
	if total <= 0 {
		panic("mathx: NewAlias with zero total weight")
	}
	a := &Alias{prob: make([]float64, n), alias: make([]int, n)}
	scaled := make([]float64, n)
	small := make([]int, 0, n)
	large := make([]int, 0, n)
	for i, w := range weights {
		scaled[i] = w * float64(n) / total
		if scaled[i] < 1 {
			small = append(small, i)
		} else {
			large = append(large, i)
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		a.prob[s] = scaled[s]
		a.alias[s] = l
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	for _, i := range large {
		a.prob[i] = 1
		a.alias[i] = i
	}
	for _, i := range small {
		a.prob[i] = 1
		a.alias[i] = i
	}
	return a
}

// Draw samples one index.
func (a *Alias) Draw(r *RNG) int {
	i := r.Intn(len(a.prob))
	if r.Float64() < a.prob[i] {
		return i
	}
	return a.alias[i]
}

// Len reports the table size.
func (a *Alias) Len() int { return len(a.prob) }
