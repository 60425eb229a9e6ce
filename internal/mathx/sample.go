package mathx

import "math"

// WeightedSampler draws weighted samples without replacement, holding the
// kept keys and their indices so repeated draws are allocation-free once
// warm. Not safe for concurrent use; keep one per worker.
type WeightedSampler struct {
	keys []float64
	idx  []int
}

// SampleInto draws k distinct indices from the unnormalized non-negative
// weights into out's backing array (grown as needed), using the
// Efraimidis–Spirakis exponential-key method: each item i receives key
// u_i^(1/w_i) and the k largest keys win. Items with zero weight are never
// selected; when fewer than k positive-weight items exist the result is
// truncated. The returned indices are in descending key order (effectively
// random order), equal keys in ascending index order. It consumes one
// uniform variate per positive weight, in index order.
//
// The k largest keys are kept in a heap of size k while the keys are drawn
// and only those k are ordered at the end: O(n log k), where sorting every
// key was O(n log n) — the mini-batch draw keeps 32 of ~6,300 (DESIGN.md §7).
func (ws *WeightedSampler) SampleInto(r *RNG, weights []float64, k int, out []int) []int {
	ws.keys, ws.idx = ws.keys[:0], ws.idx[:0]
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		// log(u)/w is a monotone transform of u^(1/w); avoids pow.
		key := math.Log(r.Float64()) / w
		switch {
		case len(ws.idx) < k:
			ws.keys, ws.idx = append(ws.keys, key), append(ws.idx, i)
			ws.up(len(ws.idx) - 1)
		case k > 0 && key > ws.keys[0]:
			// i is past every kept index, so it displaces the weakest kept
			// entry only with a larger key, never an equal one.
			ws.keys[0], ws.idx[0] = key, i
			ws.down(0, k)
		}
	}
	// Heapsort: the weakest kept entry moves to the back, one at a time.
	for n := len(ws.idx) - 1; n > 0; n-- {
		ws.swap(0, n)
		ws.down(0, n)
	}
	return append(out[:0], ws.idx...)
}

// weaker reports whether kept entry a loses to b: a smaller key, or an equal
// key at a larger index. The heap over the kept entries has the weakest at
// its root.
func (ws *WeightedSampler) weaker(a, b int) bool {
	ka, kb := ws.keys[a], ws.keys[b]
	return ka < kb || ka == kb && ws.idx[a] > ws.idx[b]
}

func (ws *WeightedSampler) swap(a, b int) {
	ws.keys[a], ws.keys[b] = ws.keys[b], ws.keys[a]
	ws.idx[a], ws.idx[b] = ws.idx[b], ws.idx[a]
}

// up restores the heap after entry j was appended.
func (ws *WeightedSampler) up(j int) {
	for j > 0 {
		p := (j - 1) / 2
		if !ws.weaker(j, p) {
			return
		}
		ws.swap(j, p)
		j = p
	}
}

// down restores the heap over the first n entries after entry j changed.
func (ws *WeightedSampler) down(j, n int) {
	for {
		c := 2*j + 1
		if c >= n {
			return
		}
		if c+1 < n && ws.weaker(c+1, c) {
			c++
		}
		if !ws.weaker(c, j) {
			return
		}
		ws.swap(j, c)
		j = c
	}
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
