// Package stats provides the named-bucket timer behind the NF/AS/FS/PP
// breakdowns and a quantile helper for latency samples.
package stats

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Timer accumulates named durations; it powers the NF/AS/FS/PP runtime
// breakdowns in Table III and Fig. 1. Like the training loop that charges
// it, a Timer is single-goroutine state.
type Timer struct {
	buckets map[string]time.Duration
	order   []string
}

// NewTimer returns an empty timer.
func NewTimer() *Timer {
	return &Timer{buckets: make(map[string]time.Duration)}
}

// Add charges d to bucket name.
func (t *Timer) Add(name string, d time.Duration) {
	if _, ok := t.buckets[name]; !ok {
		t.order = append(t.order, name)
	}
	t.buckets[name] += d
}

// Get returns the accumulated duration for name.
func (t *Timer) Get(name string) time.Duration {
	return t.buckets[name]
}

// Reset zeroes all buckets while keeping their order.
func (t *Timer) Reset() {
	for k := range t.buckets {
		t.buckets[k] = 0
	}
}

// Breakdown formats each bucket as seconds with its share of the total.
func (t *Timer) Breakdown() string {
	var total time.Duration
	for _, d := range t.buckets {
		total += d
	}
	s := ""
	for _, name := range t.order {
		d := t.buckets[name]
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(d) / float64(total)
		}
		s += fmt.Sprintf("%s=%.3fs(%.0f%%) ", name, d.Seconds(), pct)
	}
	return s + fmt.Sprintf("total=%.3fs", total.Seconds())
}

// Quantile returns the q-quantile (0≤q≤1) of xs by sorting a copy.
func Quantile(xs []float64, q float64) float64 {
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	return SortedQuantile(cp, q)
}

// SortedQuantile is Quantile of xs already sorted ascending, read in place
// (NaN when empty).
func SortedQuantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return xs[lo]
	}
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + xs[hi]*frac
}
