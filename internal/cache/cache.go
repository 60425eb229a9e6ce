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

// residency is the slot table of an epoch-granularity policy: which rows are
// resident, in which slot, and the hit/miss tally of reads against it.
type residency struct {
	counters
	capacity int
	slots    map[int32]int
	free     []int
}

func newResidency(capacity int) residency {
	r := residency{capacity: capacity, slots: make(map[int32]int, capacity)}
	for s := capacity - 1; s >= 0; s-- {
		r.free = append(r.free, s)
	}
	return r
}

// Capacity implements Policy.
func (r *residency) Capacity() int { return r.capacity }

// Lookup implements Policy.
func (r *residency) Lookup(id int32) (int, bool) {
	s, ok := r.slots[id]
	return s, ok
}

// Access implements Policy for a policy that learns nothing from a read: it
// only tallies the hit or miss.
func (r *residency) Access(id int32) (int, bool) {
	s, ok := r.slots[id]
	r.count(ok)
	return s, ok
}

// ObserveCounts tallies one epoch's access counts against the current
// residency in bulk and reports how many of those accesses hit. Because
// residency is constant within an epoch, this is exactly equivalent to
// replaying the accesses one by one — the Fig. 3(b) harness uses it to
// simulate hit-rate curves from recorded per-epoch counts.
func (r *residency) ObserveCounts(counts []int64) (hits, total int64) {
	for id, c := range counts {
		if c == 0 {
			continue
		}
		total += c
		if _, ok := r.slots[int32(id)]; ok {
			hits += c
		}
	}
	r.hits += hits
	r.misses += total - hits
	return hits, total
}

// install makes top resident: it evicts every resident row not in top, then
// fills the freed slots with top's missing rows in top's order, and returns
// those rows, whose features must be (re)loaded.
func (r *residency) install(top []int32) []int32 {
	inTop := make(map[int32]bool, len(top))
	for _, id := range top {
		inTop[id] = true
	}
	for id, slot := range r.slots {
		if !inTop[id] {
			delete(r.slots, id)
			r.free = append(r.free, slot)
		}
	}
	var inserted []int32
	for _, id := range top {
		if _, ok := r.slots[id]; ok {
			continue
		}
		if len(r.free) == 0 {
			break
		}
		slot := r.free[len(r.free)-1]
		r.free = r.free[:len(r.free)-1]
		r.slots[id] = slot
		inserted = append(inserted, id)
	}
	return inserted
}

// Frequency is TASER's historical-frequency cache (Algorithm 3).
type Frequency struct {
	residency
	// Epsilon is the swap threshold as a fraction of capacity: the cache is
	// rebuilt when |cached ∩ topk| < ε·k.
	Epsilon float64

	counts []int64 // this epoch's accesses per row
}

// NewFrequency builds a frequency cache over numRows feature rows with the
// given resident capacity. The cache starts empty (the paper seeds it with
// random rows; starting cold only delays warm-up by one epoch and keeps the
// policy deterministic).
func NewFrequency(numRows, capacity int, epsilon float64) *Frequency {
	if capacity < 0 || capacity > numRows {
		panic(fmt.Sprintf("cache: capacity %d out of range [0, %d]", capacity, numRows))
	}
	return &Frequency{residency: newResidency(capacity), Epsilon: epsilon, counts: make([]int64, numRows)}
}

// Access implements Policy: frequency is updated on every read (Algorithm 3
// line 6), residency is only changed at epoch boundaries.
func (f *Frequency) Access(id int32) (int, bool) {
	f.counts[id]++
	return f.residency.Access(id)
}

// ObserveCounts is residency.ObserveCounts that also counts the accesses
// toward the next EndEpoch, as Access does.
func (f *Frequency) ObserveCounts(counts []int64) (hits, total int64) {
	for id, c := range counts {
		f.counts[id] += c
	}
	return f.residency.ObserveCounts(counts)
}

// EndEpoch implements Policy (Algorithm 3 lines 8–10). Only the ending
// epoch's accesses count: they are cleared afterwards.
func (f *Frequency) EndEpoch() []int32 {
	defer clear(f.counts)
	if f.capacity == 0 {
		return nil
	}
	top := topK(f.counts, f.capacity)
	overlap := 0
	for _, id := range top {
		if _, ok := f.slots[id]; ok {
			overlap++
		}
	}
	if float64(overlap) >= f.Epsilon*float64(len(top)) && len(f.slots) > 0 {
		return nil // cached set is still fresh enough; skip the swap
	}
	return f.install(top)
}
