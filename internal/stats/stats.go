// Package stats provides the named-bucket timer behind the NF/AS/FS/PP
// breakdowns and a quantile helper for latency samples.
package stats

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// Timer accumulates named durations; it powers the NF/AS/FS/PP runtime
// breakdowns in Table III and Fig. 1. It is safe for concurrent use: the
// pipelined training loop charges build-phase buckets from the prefetch
// goroutine while the consumer charges PP.
type Timer struct {
	mu      sync.Mutex
	buckets map[string]time.Duration
	order   []string
}

// NewTimer returns an empty timer.
func NewTimer() *Timer {
	return &Timer{buckets: make(map[string]time.Duration)}
}

// Add charges d to bucket name.
func (t *Timer) Add(name string, d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.buckets[name]; !ok {
		t.order = append(t.order, name)
	}
	t.buckets[name] += d
}

// Time runs f and charges its wall time to bucket name.
func (t *Timer) Time(name string, f func()) {
	start := time.Now()
	f()
	t.Add(name, time.Since(start))
}

// Get returns the accumulated duration for name.
func (t *Timer) Get(name string) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.buckets[name]
}

// Reset zeroes all buckets while keeping their order.
func (t *Timer) Reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for k := range t.buckets {
		t.buckets[k] = 0
	}
}

// Names returns bucket names in first-use order.
func (t *Timer) Names() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]string(nil), t.order...)
}

// Breakdown formats each bucket as seconds with its share of the total.
func (t *Timer) Breakdown() string {
	t.mu.Lock()
	defer t.mu.Unlock()
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
	if len(xs) == 0 {
		return math.NaN()
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	pos := q * float64(len(cp)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return cp[lo]
	}
	frac := pos - float64(lo)
	return cp[lo]*(1-frac) + cp[hi]*frac
}
