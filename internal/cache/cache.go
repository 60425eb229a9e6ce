// Package cache implements the GPU feature-cache policies evaluated in the
// paper (§III-D, Algorithm 3, Fig. 3b):
//
//   - Frequency: TASER's dynamic cache. During an epoch it counts accesses
//     per feature row; at the epoch boundary, if the overlap between the
//     cached set and the top-k most frequently accessed rows falls below a
//     threshold ε, the cache contents are swapped for the top-k. The policy
//     costs O(|E|) per epoch — far cheaper than per-access probability
//     maintenance — and converges because Adam stabilizes the access
//     pattern.
//   - Oracle: the upper bound that knows next epoch's access frequencies in
//     advance (Fig. 3b's "Oracle Cache").
//   - LRU: a classic per-access recency policy, included as the ablation
//     baseline for the replacement-strategy design choice.
//
// A policy only decides *which* row ids are resident and in which slot; the
// actual feature bytes live in featstore.
package cache

import (
	"fmt"
	"sort"
)

// Policy is the interface feature stores use to consult and train a cache.
type Policy interface {
	// Access records a read of row id and reports whether it is resident,
	// along with its slot when it is.
	Access(id int32) (slot int, hit bool)
	// Lookup is Access without recording (used when refilling slots).
	Lookup(id int32) (slot int, hit bool)
	// EndEpoch applies the replacement policy. It returns the ids inserted
	// into the cache this round; their feature rows must be (re)loaded into
	// the slots reported by Lookup.
	EndEpoch() (inserted []int32)
	// Capacity is the number of resident rows.
	Capacity() int
	// HitRate reports hits/(hits+misses) since the last ResetStats.
	HitRate() float64
	// ResetStats zeroes the hit/miss counters (typically per epoch).
	ResetStats()
}

// counters implements shared hit/miss accounting.
type counters struct {
	hits, misses int64
}

func (c *counters) count(hit bool) {
	if hit {
		c.hits++
	} else {
		c.misses++
	}
}

// HitRate implements Policy.
func (c *counters) HitRate() float64 {
	total := c.hits + c.misses
	if total == 0 {
		return 0
	}
	return float64(c.hits) / float64(total)
}

// ResetStats implements Policy.
func (c *counters) ResetStats() { c.hits, c.misses = 0, 0 }

// topK returns the ids of the k largest counts (ties broken by lower id for
// determinism). It runs in O(n log n); n = |E| once per epoch is cheap
// relative to training (§III-D).
func topK(counts []int64, k int) []int32 {
	type pair struct {
		id int32
		c  int64
	}
	pairs := make([]pair, 0, len(counts))
	for id, c := range counts {
		if c > 0 {
			pairs = append(pairs, pair{int32(id), c})
		}
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].c != pairs[j].c {
			return pairs[i].c > pairs[j].c
		}
		return pairs[i].id < pairs[j].id
	})
	if k > len(pairs) {
		k = len(pairs)
	}
	out := make([]int32, k)
	for i := 0; i < k; i++ {
		out[i] = pairs[i].id
	}
	return out
}

// PaperEpsilon is Algorithm 3's swap threshold ε at the value the paper
// trains with — what every caller outside a test passes to NewFrequency.
const PaperEpsilon = 0.7

// Frequency is TASER's historical-frequency cache (Algorithm 3).
type Frequency struct {
	counters
	capacity int
	// Epsilon is the swap threshold as a fraction of capacity: the cache is
	// rebuilt when |cached ∩ topk| < ε·k.
	Epsilon float64
	// Decay scales the access counts at each epoch boundary: 0 keeps only
	// the previous epoch's pattern (Algorithm 3), 1 accumulates history.
	Decay float64

	counts []int64
	slots  map[int32]int
	free   []int
}

// NewFrequency builds a frequency cache over numRows feature rows with the
// given resident capacity. The cache starts empty (the paper seeds it with
// random rows; starting cold only delays warm-up by one epoch and keeps the
// policy deterministic).
func NewFrequency(numRows, capacity int, epsilon float64) *Frequency {
	if capacity < 0 || capacity > numRows {
		panic(fmt.Sprintf("cache: capacity %d out of range [0, %d]", capacity, numRows))
	}
	f := &Frequency{
		capacity: capacity,
		Epsilon:  epsilon,
		counts:   make([]int64, numRows),
		slots:    make(map[int32]int, capacity),
	}
	for s := capacity - 1; s >= 0; s-- {
		f.free = append(f.free, s)
	}
	return f
}

// Capacity implements Policy.
func (f *Frequency) Capacity() int { return f.capacity }

// Lookup implements Policy.
func (f *Frequency) Lookup(id int32) (int, bool) {
	s, ok := f.slots[id]
	return s, ok
}

// Access implements Policy: frequency is updated on every read (Algorithm 3
// line 6), residency is only changed at epoch boundaries.
func (f *Frequency) Access(id int32) (int, bool) {
	f.counts[id]++
	s, ok := f.slots[id]
	f.count(ok)
	return s, ok
}

// EndEpoch implements Policy (Algorithm 3 lines 8–10).
func (f *Frequency) EndEpoch() []int32 {
	if f.capacity == 0 {
		f.decayCounts()
		return nil
	}
	top := topK(f.counts, f.capacity)
	overlap := 0
	inTop := make(map[int32]bool, len(top))
	for _, id := range top {
		inTop[id] = true
		if _, ok := f.slots[id]; ok {
			overlap++
		}
	}
	defer f.decayCounts()
	if float64(overlap) >= f.Epsilon*float64(len(top)) && len(f.slots) > 0 {
		return nil // cached set is still fresh enough; skip the swap
	}
	// Swap: evict rows not in the top-k, then fill freed slots with the rest.
	var inserted []int32
	for id, slot := range f.slots {
		if !inTop[id] {
			delete(f.slots, id)
			f.free = append(f.free, slot)
		}
	}
	for _, id := range top {
		if _, ok := f.slots[id]; ok {
			continue
		}
		if len(f.free) == 0 {
			break
		}
		slot := f.free[len(f.free)-1]
		f.free = f.free[:len(f.free)-1]
		f.slots[id] = slot
		inserted = append(inserted, id)
	}
	return inserted
}

// ObserveCounts folds one epoch's access counts into the policy in bulk and
// reports how many of those accesses hit the current residency. Because
// residency is constant within an epoch, this is exactly equivalent to
// replaying the accesses one by one — the Fig. 3(b) harness uses it to
// simulate hit-rate curves from recorded per-epoch counts.
func (f *Frequency) ObserveCounts(counts []int64) (hits, total int64) {
	for id, c := range counts {
		if c == 0 {
			continue
		}
		f.counts[id] += c
		total += c
		if _, ok := f.slots[int32(id)]; ok {
			hits += c
		}
	}
	f.hits += hits
	f.misses += total - hits
	return hits, total
}

func (f *Frequency) decayCounts() {
	if f.Decay == 1 {
		return
	}
	if f.Decay == 0 {
		for i := range f.counts {
			f.counts[i] = 0
		}
		return
	}
	for i := range f.counts {
		f.counts[i] = int64(float64(f.counts[i]) * f.Decay)
	}
}
