// Package overload is the serving plane's overload control plane
// (DESIGN.md §14): it decides what happens when offered load exceeds what
// the engine can serve. Instead of queueing without bound (closed-loop
// collapse: every request eventually served, none of them on time), the
// engine degrades deliberately by bounding admission.
//
// A Gate (gate.go) admits requests into a shared in-service capacity
// through per-lane bounded FIFO queues; when a lane's queue is full the
// request is shed immediately with ErrOverload and a Retry-After estimate,
// so clients back off instead of piling on. Freed slots are handed off
// between lanes by smooth weighted round-robin, which gives prediction
// priority over ingest (and both priority over replication catch-up) while
// guaranteeing starvation-freedom for every lane.
//
// The gate is opt-in per serve.Config; the zero Config disables the
// subsystem entirely and the engine runs exactly its static-config path.
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
	// — the latency-sensitive traffic the other lanes must never starve.
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
// value disables the subsystem; MaxQueue > 0 enables admission control. The
// lanes' shares are constants (gate.go).
type Config struct {
	// MaxQueue bounds each lane's admission queue; a request arriving at a
	// full lane is shed with ErrOverload (0 = no admission control).
	MaxQueue int
	// Capacity is the shared in-service concurrency the gate admits across
	// all lanes (default 2× the scheduler's base MaxBatch).
	Capacity int
}

// AdmissionEnabled reports whether bounded admission (the gate) is on.
func (c Config) AdmissionEnabled() bool { return c.MaxQueue > 0 }

// Normalize validates and fills defaults against the scheduler's static base
// MaxBatch (the gate sizes its capacity from it). The second parameter, the
// scheduler's base MaxWait, bears on nothing; it stays only because
// benchmark/ passes it.
func (c Config) Normalize(baseBatch int, _ time.Duration) (Config, error) {
	if c.MaxQueue < 0 || c.Capacity < 0 {
		return c, fmt.Errorf("overload: MaxQueue and Capacity must not be negative (got %d, %d)", c.MaxQueue, c.Capacity)
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
