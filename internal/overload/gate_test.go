package overload

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func testGate(t *testing.T, capacity, maxQueue int) *Gate {
	t.Helper()
	cfg, err := Config{MaxQueue: maxQueue, Capacity: capacity}.Normalize(8, 2*time.Millisecond)
	if err != nil {
		t.Fatalf("Normalize: %v", err)
	}
	return NewGate(cfg)
}

// waitForQueued polls until lane has n queued waiters (goroutine enqueue
// order is not otherwise observable).
func waitForQueued(t *testing.T, g *Gate, lane Lane, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if g.Stats().Lanes[lane].Queued == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("lane %v never reached %d queued (have %d)", lane, n, g.Stats().Lanes[lane].Queued)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestGateFastPathWithinCapacity(t *testing.T) {
	g := testGate(t, 2, 4)
	if err := g.Enter(LanePredict); err != nil {
		t.Fatalf("Enter 1: %v", err)
	}
	if err := g.Enter(LaneIngest); err != nil {
		t.Fatalf("Enter 2: %v", err)
	}
	st := g.Stats()
	if st.InService != 2 || st.Lanes[LanePredict].InService != 1 || st.Lanes[LaneIngest].InService != 1 {
		t.Fatalf("in-service accounting off: %+v", st)
	}
	g.Leave(LanePredict)
	g.Leave(LaneIngest)
	if st := g.Stats(); st.InService != 0 {
		t.Fatalf("slots not released: %+v", st)
	}
	if st := g.Stats(); st.Lanes[LanePredict].Admitted != 1 || st.Lanes[LaneIngest].Admitted != 1 {
		t.Fatalf("admission counters off: %+v", g.Stats())
	}
}

func TestGateShedsBeyondQueue(t *testing.T) {
	g := testGate(t, 1, 2)
	if err := g.Enter(LanePredict); err != nil {
		t.Fatalf("Enter: %v", err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := g.Enter(LanePredict); err != nil {
				t.Errorf("queued Enter: %v", err)
				return
			}
			g.Leave(LanePredict)
		}()
	}
	waitForQueued(t, g, LanePredict, 2)

	err := g.Enter(LanePredict)
	if !errors.Is(err, ErrOverload) {
		t.Fatalf("full-queue Enter = %v, want ErrOverload", err)
	}
	var rej *RejectedError
	if !errors.As(err, &rej) {
		t.Fatalf("shed error is %T, want *RejectedError", err)
	}
	if rej.Lane != LanePredict || rej.Depth != 2 {
		t.Fatalf("rejection = %+v, want lane predict depth 2", rej)
	}
	if rej.RetryAfter <= 0 {
		t.Fatalf("RetryAfter = %v, want positive", rej.RetryAfter)
	}
	if got := g.Stats().Lanes[LanePredict].Shed; got != 1 {
		t.Fatalf("shed counter = %d, want 1", got)
	}

	g.Leave(LanePredict) // cascade: both waiters get the slot in turn
	wg.Wait()
	if st := g.Stats(); st.InService != 0 || st.Lanes[LanePredict].Queued != 0 {
		t.Fatalf("gate not drained: %+v", st)
	}
}

// TestGateWeightedHandoffStarvationFreedom floods the predict lane while a
// few low-lane waiters queue behind it, then drains the gate one handoff at
// a time and checks the smooth-WRR guarantee: with weights {predict 8,
// low 1} active (total 9), the low lane is served at least once per 9
// consecutive handoffs — it cannot be starved by the flood.
func TestGateWeightedHandoffStarvationFreedom(t *testing.T) {
	cfg, err := Config{MaxQueue: 64, Capacity: 1}.Normalize(8, 2*time.Millisecond)
	if err != nil {
		t.Fatalf("Normalize: %v", err)
	}
	g := NewGate(cfg)
	if err := g.Enter(LanePredict); err != nil {
		t.Fatalf("holder Enter: %v", err)
	}

	const preds, lows = 40, 4
	var mu sync.Mutex
	var order []Lane
	var wg sync.WaitGroup
	spawn := func(lane Lane, n int) {
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := g.Enter(lane); err != nil {
					t.Errorf("Enter(%v): %v", lane, err)
					return
				}
				mu.Lock()
				order = append(order, lane)
				mu.Unlock()
				g.Leave(lane)
			}()
		}
	}
	spawn(LanePredict, preds)
	waitForQueued(t, g, LanePredict, preds)
	spawn(LaneLow, lows)
	waitForQueued(t, g, LaneLow, lows)

	g.Leave(LanePredict) // start the handoff cascade
	wg.Wait()

	if len(order) != preds+lows {
		t.Fatalf("served %d waiters, want %d", len(order), preds+lows)
	}
	// Starvation bound: while both lanes are backlogged, the gap between
	// consecutive low-lane services is at most totalWeight/lowWeight = 9.
	const bound = 9
	sinceLow := 0
	lowsSeen := 0
	for i, l := range order {
		if l == LaneLow {
			lowsSeen++
			sinceLow = 0
			continue
		}
		sinceLow++
		if lowsSeen < lows && sinceLow > bound {
			t.Fatalf("low lane starved: %d consecutive predict services at position %d (order %v)", sinceLow, i, order)
		}
	}
	if lowsSeen != lows {
		t.Fatalf("low lane served %d times, want %d", lowsSeen, lows)
	}
}

func TestGateCloseWakesWaiters(t *testing.T) {
	g := testGate(t, 1, 8)
	if err := g.Enter(LanePredict); err != nil {
		t.Fatalf("Enter: %v", err)
	}
	errs := make(chan error, 3)
	for i := 0; i < 3; i++ {
		go func() { errs <- g.Enter(LaneIngest) }()
	}
	waitForQueued(t, g, LaneIngest, 3)
	g.Close()
	for i := 0; i < 3; i++ {
		if err := <-errs; !errors.Is(err, ErrGateClosed) {
			t.Fatalf("woken waiter got %v, want ErrGateClosed", err)
		}
	}
	// The pre-Close admission still leaves cleanly, and new entries bounce.
	g.Leave(LanePredict)
	if err := g.Enter(LanePredict); !errors.Is(err, ErrGateClosed) {
		t.Fatalf("post-Close Enter = %v, want ErrGateClosed", err)
	}
	g.Close() // idempotent
}

func TestGateRetryAfterScalesWithDepthAndServiceRate(t *testing.T) {
	g := testGate(t, 1, 8)
	g.mu.Lock()
	if got := g.retryAfterLocked(3); got != time.Second {
		t.Errorf("cold retryAfter = %v, want the 1s default", got)
	}
	g.svcEWMA = 0.05 // 20 completions/sec
	ra1 := g.retryAfterLocked(1)
	ra4 := g.retryAfterLocked(4)
	raHuge := g.retryAfterLocked(100000)
	g.mu.Unlock()
	if want := 100 * time.Millisecond; ra1 != want { // (1+1) × 50ms
		t.Errorf("retryAfter(depth 1) = %v, want %v", ra1, want)
	}
	if want := 250 * time.Millisecond; ra4 != want { // (4+1) × 50ms
		t.Errorf("retryAfter(depth 4) = %v, want %v", ra4, want)
	}
	if want := 30 * time.Second; raHuge != want {
		t.Errorf("retryAfter clamp = %v, want %v", raHuge, want)
	}
}

func TestConfigNormalize(t *testing.T) {
	base, baseWait := 32, 2*time.Millisecond
	t.Run("zero stays disabled", func(t *testing.T) {
		c, err := Config{}.Normalize(base, baseWait)
		if err != nil || c.Enabled() {
			t.Fatalf("zero config: err=%v enabled=%v", err, c.Enabled())
		}
	})
	t.Run("controller defaults", func(t *testing.T) {
		c, err := Config{TargetP99: 25 * time.Millisecond}.Normalize(base, baseWait)
		if err != nil {
			t.Fatal(err)
		}
		if c.Interval != 250*time.Millisecond {
			t.Fatalf("controller defaults = %+v", c)
		}
		if c.AdmissionEnabled() {
			t.Fatal("TargetP99 alone must not enable admission")
		}
	})
	t.Run("admission defaults", func(t *testing.T) {
		c, err := Config{MaxQueue: 64}.Normalize(base, baseWait)
		if err != nil {
			t.Fatal(err)
		}
		if c.Capacity != 2*base {
			t.Fatalf("admission defaults = %+v", c)
		}
		if c.ControllerEnabled() {
			t.Fatal("MaxQueue alone must not enable the controller")
		}
	})
	bad := []Config{
		{TargetP99: -time.Second},
		{MaxQueue: -1},
		{Capacity: 16}, // admission knob without MaxQueue
		{TargetP99: time.Millisecond, Capacity: 16}, // admission knob without MaxQueue
		{Interval: time.Second},                     // controller knob without TargetP99
		{MaxQueue: 4, Interval: time.Second},        // controller knob without TargetP99
		{TargetP99: time.Millisecond, Interval: -1}, // negative cadence
		{MaxQueue: 4, Capacity: -1},                 // negative capacity
	}
	for i, c := range bad {
		if _, err := c.Normalize(base, baseWait); err == nil {
			t.Errorf("bad config %d (%+v) normalized without error", i, c)
		}
	}
}
