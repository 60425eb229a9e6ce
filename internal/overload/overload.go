// Package overload is the serving plane's overload control plane
// (DESIGN.md §14): it decides what happens when offered load exceeds what
// the engine can serve within its latency SLO. Instead of queueing without
// bound (closed-loop collapse: every request eventually served, none of
// them on time), the engine degrades deliberately, with two independent
// mechanisms that compose:
//
//   - A Gate (gate.go) bounds admission. Requests enter a shared in-service
//     capacity through per-lane bounded FIFO queues; when a lane's queue is
//     full the request is shed immediately with ErrOverload and a
//     Retry-After estimate, so clients back off instead of piling on.
//     Freed slots are handed off between lanes by smooth weighted
//     round-robin, which gives prediction priority over ingest (and both
//     priority over replication catch-up) while guaranteeing
//     starvation-freedom for every lane.
//
//   - A Controller (controller.go) retunes the micro-batching scheduler's
//     effective MaxBatch against a p99 target using the live request-latency
//     window: AIMD — double the batch ceiling (clamped) when p99 exceeds the
//     target, relax it additively back toward the operator's configured base
//     when p99 is comfortably under it.
//
// Both are opt-in per serve.Config; the zero Config disables the subsystem
// entirely and the engine runs exactly its static-config path.
package overload

import (
	"errors"
	"fmt"
	"time"
)

// Lane is a priority class of admitted work. Lower-numbered lanes carry
// higher weight in the gate's weighted dequeue.
type Lane int

const (
	// LanePredict carries interactive serving requests (PredictLink, Embed)
	// — the latency-SLO'd traffic the other lanes must never starve.
	LanePredict Lane = iota
	// LaneIngest carries public stream writes (Ingest, Bootstrap).
	LaneIngest
	// LaneLow carries background work: replication apply/catch-up and any
	// fine-tune-driven writes. It yields to both foreground lanes but is
	// still guaranteed service (weighted round-robin, not strict priority).
	LaneLow
	// NumLanes sizes per-lane arrays.
	NumLanes
)

// String names the lane as it appears in /v1/stats.
func (l Lane) String() string {
	switch l {
	case LanePredict:
		return "predict"
	case LaneIngest:
		return "ingest"
	case LaneLow:
		return "low"
	default:
		return fmt.Sprintf("lane(%d)", int(l))
	}
}

// ErrOverload marks a request shed at admission: its lane's queue was full.
// The HTTP layer maps it to 429 Too Many Requests with a Retry-After header
// — retryable by construction, unlike the sticky 503 durability path.
var ErrOverload = errors.New("overload: admission queue full")

// ErrGateClosed marks an Enter (or a queued wait) terminated because the
// gate shut down; callers map it to their own closed-engine error.
var ErrGateClosed = errors.New("overload: gate closed")

// RejectedError is the concrete shed error: it unwraps to ErrOverload and
// carries the backoff estimate the HTTP layer serializes as Retry-After.
type RejectedError struct {
	Lane       Lane
	Depth      int           // waiters already queued in the lane when shed
	RetryAfter time.Duration // estimated time until the lane likely admits
}

func (e *RejectedError) Error() string {
	return fmt.Sprintf("overload: %s lane queue full (%d waiting); retry after %v",
		e.Lane, e.Depth, e.RetryAfter)
}

func (e *RejectedError) Unwrap() error { return ErrOverload }

// Config is the user-facing overload surface serve.Config embeds. The zero
// value disables the subsystem. TargetP99 > 0 enables the SLO controller;
// MaxQueue > 0 enables admission control — each works alone, together they
// are the full control plane. How far the controller may tighten and the
// lanes' shares are constants (controller.go, gate.go).
type Config struct {
	// TargetP99 is the latency SLO the controller steers the scheduler's
	// effective MaxBatch toward (0 = no controller: static config).
	TargetP99 time.Duration
	// Interval is the controller's decision cadence (default 250ms).
	Interval time.Duration

	// MaxQueue bounds each lane's admission queue; a request arriving at a
	// full lane is shed with ErrOverload (0 = no admission control).
	MaxQueue int
	// Capacity is the shared in-service concurrency the gate admits across
	// all lanes (default 2× the scheduler's base MaxBatch).
	Capacity int
}

// ControllerEnabled reports whether the SLO feedback controller is on.
func (c Config) ControllerEnabled() bool { return c.TargetP99 > 0 }

// AdmissionEnabled reports whether bounded admission (the gate) is on.
func (c Config) AdmissionEnabled() bool { return c.MaxQueue > 0 }

// Enabled reports whether any part of the control plane is on.
func (c Config) Enabled() bool { return c.ControllerEnabled() || c.AdmissionEnabled() }

// Normalize validates and fills defaults against the scheduler's static base
// MaxBatch (the gate sizes its capacity from it). The second parameter, the
// scheduler's base MaxWait, bears on nothing; it stays only because
// benchmark/ passes it (ROADMAP 5(c)).
func (c Config) Normalize(baseBatch int, _ time.Duration) (Config, error) {
	if c.TargetP99 < 0 || c.Interval < 0 || c.MaxQueue < 0 || c.Capacity < 0 {
		return c, fmt.Errorf("overload: TargetP99, Interval, MaxQueue and Capacity must not be negative (got %v, %v, %d, %d)",
			c.TargetP99, c.Interval, c.MaxQueue, c.Capacity)
	}
	if c.ControllerEnabled() {
		if c.Interval == 0 {
			c.Interval = 250 * time.Millisecond
		}
	} else if c.Interval != 0 {
		return c, fmt.Errorf("overload: Interval requires TargetP99 (-overload-interval requires -slo-p99): there is no controller to tick without a target")
	}
	if c.AdmissionEnabled() {
		if c.Capacity == 0 {
			c.Capacity = 2 * baseBatch
		}
	} else if c.Capacity != 0 {
		return c, fmt.Errorf("overload: Capacity requires MaxQueue (-overload-capacity requires -max-queue): there is no admission gate without a queue bound")
	}
	return c, nil
}
