package stats

import (
	"math"
	"testing"
	"time"
)

func TestTimerBuckets(t *testing.T) {
	tm := NewTimer()
	tm.Add("a", time.Second)
	tm.Add("b", 2*time.Second)
	tm.Add("a", time.Second)
	if tm.Get("a") != 2*time.Second {
		t.Fatal("accumulation")
	}
	if len(tm.order) != 2 || tm.order[0] != "a" || tm.order[1] != "b" {
		t.Fatalf("order: %v", tm.order)
	}
	tm.Reset()
	if tm.Get("a") != 0 || tm.Get("b") != 0 {
		t.Fatal("reset")
	}
	if len(tm.order) != 2 {
		t.Fatal("reset must keep bucket names")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if Quantile(xs, 0) != 1 || Quantile(xs, 1) != 5 {
		t.Fatal("extremes")
	}
	if Quantile(xs, 0.5) != 3 {
		t.Fatal("median")
	}
	if math.Abs(Quantile(xs, 0.25)-2) > 1e-12 {
		t.Fatal("q25")
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Fatal("empty input must be NaN")
	}
}
