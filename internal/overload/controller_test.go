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
		BaseBatch: 8, BaseWait: 2 * time.Millisecond, // cap 32, floor 250µs
		Sample: sample,
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
	if c.MaxBatch() != 16 || c.MaxWait() != time.Millisecond {
		t.Fatalf("after step 1: batch=%d wait=%v", c.MaxBatch(), c.MaxWait())
	}
	if d := c.observe(over); d != DecisionTighten {
		t.Fatalf("step 2 = %v, want tighten", d)
	}
	if c.MaxBatch() != 32 || c.MaxWait() != 500*time.Microsecond {
		t.Fatalf("after step 2: batch=%d wait=%v", c.MaxBatch(), c.MaxWait())
	}
	// Batch is pinned at the cap; the wait still has room.
	if d := c.observe(over); d != DecisionTighten {
		t.Fatalf("step 3 = %v, want tighten", d)
	}
	if c.MaxBatch() != 32 || c.MaxWait() != 250*time.Microsecond {
		t.Fatalf("after step 3: batch=%d wait=%v", c.MaxBatch(), c.MaxWait())
	}
	// Fully pinned: further pressure is a hold, not counter churn.
	if d := c.observe(over); d != DecisionHold {
		t.Fatalf("pinned step = %v, want hold", d)
	}
	st := c.Stats()
	if st.Tightened != 3 || st.Held != 1 {
		t.Fatalf("decision counters = %+v", st)
	}
}

func TestControllerRelaxesAdditivelyToBase(t *testing.T) {
	c := testController(t, nil)
	for i := 0; i < 3; i++ {
		c.observe(time.Second) // drive to the clamps: batch 32, wait 250µs
	}
	calm := time.Millisecond // < 0.75 × target
	// Additive steps: batch −2 (base/4) per step, wait +250µs (base/8) per
	// step — the wait reaches base after 7 steps, the batch after 12.
	for i := 0; i < 12; i++ {
		if d := c.observe(calm); d != DecisionRelax {
			t.Fatalf("relax step %d = %v (batch=%d wait=%v)", i, d, c.MaxBatch(), c.MaxWait())
		}
	}
	if c.MaxBatch() != 8 || c.MaxWait() != 2*time.Millisecond {
		t.Fatalf("after relaxing: batch=%d wait=%v, want base 8/2ms", c.MaxBatch(), c.MaxWait())
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
	if c.MaxBatch() != 8 || c.MaxWait() != 2*time.Millisecond {
		t.Fatalf("comfort band moved the values: batch=%d wait=%v", c.MaxBatch(), c.MaxWait())
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
		{BaseBatch: 8, BaseWait: time.Millisecond, Sample: sample},                // no target
		{TargetP99: time.Millisecond, BaseWait: time.Millisecond, Sample: sample}, // no base batch
		{TargetP99: time.Millisecond, BaseBatch: 8, Sample: sample},               // no base wait
		{TargetP99: time.Millisecond, BaseBatch: 8, BaseWait: time.Millisecond},   // no sample
	}
	for i, cfg := range bad {
		if _, err := NewController(cfg); err == nil {
			t.Errorf("bad controller config %d accepted", i)
		}
	}
}
