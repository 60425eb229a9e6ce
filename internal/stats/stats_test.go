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
	names := tm.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("order: %v", names)
	}
	tm.Reset()
	if tm.Get("a") != 0 || tm.Get("b") != 0 {
		t.Fatal("reset")
	}
	if len(tm.Names()) != 2 {
		t.Fatal("reset must keep bucket names")
	}
}

func TestTimerTime(t *testing.T) {
	tm := NewTimer()
	tm.Time("x", func() { time.Sleep(time.Millisecond) })
	if tm.Get("x") <= 0 {
		t.Fatal("Time must record elapsed wall clock")
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
