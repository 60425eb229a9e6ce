package overload

import (
	"testing"
	"time"
)

func testController(t *testing.T, sample func([]float64) []float64) *Controller {
	t.Helper()
	if sample == nil {
		sample = func(dst []float64) []float64 { return dst }
	}
	c, err := NewController(ControllerConfig{
		TargetP99: 10 * time.Millisecond,
		BaseBatch: 8, // cap 32
		Sample:    sample,
	})
	if err != nil {
		t.Fatalf("NewController: %v", err)
	}
	return c
}

func TestControllerTightensMultiplicativelyAndClamps(t *testing.T) {
	c := testController(t, nil)
	over := 20 * time.Millisecond

	if d := c.observe(over); d != DecisionTighten {
		t.Fatalf("step 1 = %v, want tighten", d)
	}
	if c.MaxBatch() != 16 {
		t.Fatalf("after step 1: batch=%d", c.MaxBatch())
	}
	if d := c.observe(over); d != DecisionTighten {
		t.Fatalf("step 2 = %v, want tighten", d)
	}
	if c.MaxBatch() != 32 {
		t.Fatalf("after step 2: batch=%d", c.MaxBatch())
	}
	// Pinned at the cap: further pressure is a hold, not counter churn.
	if d := c.observe(over); d != DecisionHold {
		t.Fatalf("pinned step = %v, want hold", d)
	}
	if c.MaxBatch() != 32 {
		t.Fatalf("pinned step moved the ceiling: batch=%d", c.MaxBatch())
	}
	st := c.Stats()
	if st.Tightened != 2 || st.Held != 1 || st.MaxBatch != 32 {
		t.Fatalf("decision counters = %+v", st)
	}
}

func TestControllerRelaxesAdditivelyToBase(t *testing.T) {
	c := testController(t, nil)
	for i := 0; i < 2; i++ {
		c.observe(time.Second) // drive to the clamp: batch 32
	}
	calm := time.Millisecond // < 0.75 × target
	// Additive steps: batch −2 (base/4) per step — base after 12 steps.
	for i := 0; i < 12; i++ {
		if d := c.observe(calm); d != DecisionRelax {
			t.Fatalf("relax step %d = %v (batch=%d)", i, d, c.MaxBatch())
		}
		if want := 32 - 2*(i+1); c.MaxBatch() != want {
			t.Fatalf("relax step %d: batch=%d, want %d", i, c.MaxBatch(), want)
		}
	}
	if c.MaxBatch() != 8 {
		t.Fatalf("after relaxing: batch=%d, want base 8", c.MaxBatch())
	}
	// At base, calm traffic holds — the controller never undershoots the
	// operator's configuration.
	if d := c.observe(calm); d != DecisionHold {
		t.Fatalf("at-base step = %v, want hold", d)
	}
}

func TestControllerComfortBandHolds(t *testing.T) {
	c := testController(t, nil)
	// p99 in [0.75×target, target] neither tightens nor relaxes.
	for _, p99 := range []time.Duration{8 * time.Millisecond, 9 * time.Millisecond, 10 * time.Millisecond} {
		if d := c.observe(p99); d != DecisionHold {
			t.Fatalf("observe(%v) = %v, want hold", p99, d)
		}
	}
	if c.MaxBatch() != 8 {
		t.Fatalf("comfort band moved the ceiling: batch=%d", c.MaxBatch())
	}
}

func TestControllerTickSamplesWindow(t *testing.T) {
	window := []float64{} // seconds
	c := testController(t, func(dst []float64) []float64 {
		return append(dst[:0], window...)
	})
	// Empty window: no evidence, no move.
	if d := c.Tick(); d != DecisionHold {
		t.Fatalf("empty-window Tick = %v, want hold", d)
	}
	// A window whose p99 breaches the 10ms target tightens.
	for i := 0; i < 100; i++ {
		window = append(window, 0.02)
	}
	if d := c.Tick(); d != DecisionTighten {
		t.Fatalf("hot-window Tick = %v, want tighten", d)
	}
	// A calm window relaxes back.
	window = window[:0]
	for i := 0; i < 100; i++ {
		window = append(window, 0.001)
	}
	if d := c.Tick(); d != DecisionRelax {
		t.Fatalf("calm-window Tick = %v, want relax", d)
	}
}

func TestNewControllerValidates(t *testing.T) {
	sample := func(dst []float64) []float64 { return dst }
	bad := []ControllerConfig{
		{BaseBatch: 8, Sample: sample},                               // no target
		{TargetP99: time.Millisecond, Sample: sample},                // no base batch
		{TargetP99: time.Millisecond, BaseBatch: -8, Sample: sample}, // negative base batch
		{TargetP99: time.Millisecond, BaseBatch: 8},                  // no sample
	}
	for i, cfg := range bad {
		if _, err := NewController(cfg); err == nil {
			t.Errorf("bad controller config %d accepted", i)
		}
	}
}

// TestControllerTickAllocFree: a warm Tick over a full 4,096-sample window
// allocates nothing — the window is sorted in the controller's own buffer,
// not copied for the quantile.
func TestControllerTickAllocFree(t *testing.T) {
	window := make([]float64, 4096) // seconds
	for i := range window {
		window[i] = float64((i*7919)%4096) * 1e-5
	}
	c := testController(t, func(dst []float64) []float64 {
		return append(dst[:0], window...)
	})
	c.Tick() // warm: the buffer grows to the window once
	if n := testing.AllocsPerRun(50, func() { c.Tick() }); n != 0 {
		t.Fatalf("warm Tick allocates %v times, want 0", n)
	}
}
