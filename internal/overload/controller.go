package overload

import (
	"fmt"
	"sync/atomic"
	"time"

	"taser/internal/stats"
)

// Decision is one controller step's outcome.
type Decision int

const (
	// DecisionHold left the effective values unchanged (p99 in the
	// comfort band, an empty sample window, or already pinned at a clamp).
	DecisionHold Decision = iota
	// DecisionTighten reacted to p99 above target: batch ceiling doubled
	// (clamped).
	DecisionTighten
	// DecisionRelax stepped additively back toward the configured base
	// after p99 dropped comfortably under target.
	DecisionRelax
)

// ControllerConfig parameterizes the AIMD law. BaseBatch is the operator's
// static MaxBatch — where the controller starts and what it relaxes back to;
// how far tightening may go is batchCap.
type ControllerConfig struct {
	TargetP99 time.Duration
	BaseBatch int

	// Sample copies the recent request-latency window (seconds) into dst and
	// returns it — the engine wires latencyRing.sample here. It must never
	// block the request path: a copy under the ring's lock, no sorting.
	Sample func(dst []float64) []float64
}

// batchCap is how far the controller may raise the effective MaxBatch: 4×
// the configured base.
func (c ControllerConfig) batchCap() int64 { return 4 * int64(c.BaseBatch) }

// Controller retunes the scheduler's effective MaxBatch against a p99 target
// with an AIMD law. The physics: a larger MaxBatch amortizes the per-flush
// fixed cost over more roots, raising throughput to drain the backlog. It is
// the only knob worth turning: the scheduler's gather is work-conserving
// (serve's Engine.loop — under overload the batch fills from the requests
// parked behind the previous flush), so no wait bound is reached under load.
// The ceiling reverts additively toward the operator's base once p99 is
// comfortably under target: the steady state is the configured behavior, not
// the emergency one.
//
// MaxBatch is a lock-free atomic read — the scheduler loop reads it per
// request with no coordination. Tick is called by a single owner goroutine
// (the engine's control loop).
type Controller struct {
	cfg   ControllerConfig
	start time.Time
	batch atomic.Int64

	tightened atomic.Uint64
	relaxed   atomic.Uint64
	held      atomic.Uint64

	buf []float64 // sample scratch, owned by the ticking goroutine
}

// NewController validates the config and starts at the base values.
func NewController(cfg ControllerConfig) (*Controller, error) {
	if cfg.TargetP99 <= 0 {
		return nil, fmt.Errorf("overload: controller TargetP99 must be positive, got %v", cfg.TargetP99)
	}
	if cfg.BaseBatch <= 0 {
		return nil, fmt.Errorf("overload: controller needs a positive BaseBatch, got %d", cfg.BaseBatch)
	}
	if cfg.Sample == nil {
		return nil, fmt.Errorf("overload: controller Sample is required")
	}
	c := &Controller{cfg: cfg, start: time.Now()}
	c.batch.Store(int64(cfg.BaseBatch))
	return c, nil
}

// MaxBatch returns the effective batch ceiling (lock-free).
func (c *Controller) MaxBatch() int { return int(c.batch.Load()) }

// Tick runs one control step: sample the latency window, compute p99, apply
// the AIMD law. An empty window holds — no evidence, no move.
func (c *Controller) Tick() Decision {
	c.buf = c.cfg.Sample(c.buf[:0])
	if len(c.buf) == 0 {
		c.held.Add(1)
		return DecisionHold
	}
	p99 := time.Duration(stats.Quantile(c.buf, 0.99) * float64(time.Second))
	return c.observe(p99)
}

// observe applies the law to one p99 observation (split from Tick so tests
// can drive synthetic trajectories).
func (c *Controller) observe(p99 time.Duration) Decision {
	b := c.batch.Load()
	switch {
	case p99 > c.cfg.TargetP99:
		// Multiplicative tighten: double the batch ceiling.
		nb := min(b*2, c.cfg.batchCap())
		if nb == b {
			c.held.Add(1) // pinned at the clamp; nothing left to give
			return DecisionHold
		}
		c.batch.Store(nb)
		c.tightened.Add(1)
		return DecisionTighten
	case p99 < c.cfg.TargetP99*3/4:
		// Additive relax toward the operator's base (never past it).
		nb := max(b-max(1, int64(c.cfg.BaseBatch/4)), int64(c.cfg.BaseBatch))
		if nb == b {
			c.held.Add(1) // already at base
			return DecisionHold
		}
		c.batch.Store(nb)
		c.relaxed.Add(1)
		return DecisionRelax
	default:
		// Comfort band [0.75×target, target]: close enough, don't oscillate.
		c.held.Add(1)
		return DecisionHold
	}
}

// ControllerStats is the controller's point-in-time summary and the
// "controller" block of /v1/stats. MaxBatch stays off the wire: the
// enclosing overload block reports it as its effective value.
type ControllerStats struct {
	TargetP99       time.Duration `json:"-"`
	TargetP99US     int64         `json:"target_p99_us"` // TargetP99 on the wire
	MaxBatch        int           `json:"-"`             // current effective batch ceiling
	Tightened       uint64        `json:"tightened"`
	Relaxed         uint64        `json:"relaxed"`
	Held            uint64        `json:"held"`
	DecisionsPerSec float64       `json:"decisions_per_sec"` // decision rate since the controller started
}

// Merge folds another engine's controller into s (the fleet view): decision
// counters and rates sum, the effective ceiling reports the most-tightened
// shard, and the target — one config for every shard — folds by max.
func (s *ControllerStats) Merge(o ControllerStats) {
	s.TargetP99 = max(s.TargetP99, o.TargetP99)
	s.TargetP99US = max(s.TargetP99US, o.TargetP99US)
	s.MaxBatch = min(s.MaxBatch, o.MaxBatch)
	s.Tightened += o.Tightened
	s.Relaxed += o.Relaxed
	s.Held += o.Held
	s.DecisionsPerSec += o.DecisionsPerSec
}

// Stats snapshots the controller.
func (c *Controller) Stats() ControllerStats {
	st := ControllerStats{
		TargetP99:   c.cfg.TargetP99,
		TargetP99US: c.cfg.TargetP99.Microseconds(),
		MaxBatch:    c.MaxBatch(),
		Tightened:   c.tightened.Load(),
		Relaxed:     c.relaxed.Load(),
		Held:        c.held.Load(),
	}
	if el := time.Since(c.start).Seconds(); el > 0 {
		st.DecisionsPerSec = float64(st.Tightened+st.Relaxed+st.Held) / el
	}
	return st
}
