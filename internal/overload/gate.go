package overload

import (
	"sync"
	"time"
)

// Gate is the bounded admission gate: a shared in-service capacity fed by
// per-lane bounded FIFO queues, with freed slots handed off between lanes by
// smooth weighted round-robin.
//
// Admission protocol: Enter blocks until a slot is granted, returns nil, and
// the caller must Leave(lane) exactly once when its work completes. When the
// lane's queue is full Enter fails immediately with a *RejectedError
// (unwrapping to ErrOverload) carrying a Retry-After estimate — shedding is
// O(1) and never blocks, so a flooded gate stays cheap exactly when it is
// busiest.
//
// Invariant: waiters exist only while every capacity slot is in service.
// Leave hands its slot directly to the chosen waiter (in-service count
// unchanged) rather than releasing and re-admitting, so a freed slot can
// never race past the queue to a newly arriving request.
//
// Fairness: each handoff runs one step of smooth weighted round-robin over
// the lanes with waiters (credit[l] += weight[l]; pick the max; subtract the
// active total from the winner). A continuously backlogged lane of weight w
// is therefore selected at least once in every ceil(totalWeight/w)
// consecutive handoffs — starvation-freedom, not just priority.
type Gate struct {
	mu     sync.Mutex
	cfg    Config // normalized: Capacity > 0, MaxQueue > 0
	closed bool

	inService [NumLanes]int
	totalIn   int
	queues    [NumLanes][]*waiter
	credit    [NumLanes]int // smooth-WRR state

	admitted [NumLanes]uint64
	shed     [NumLanes]uint64

	// Service-rate estimate for Retry-After: EWMA of the interval between
	// consecutive Leaves (completions), alpha 0.1.
	svcEWMA     float64 // seconds per completion; 0 until the second Leave
	lastLeave   time.Time
	completions uint64
}

// waiter is one queued Enter; ch (capacity 1) delivers nil on admission or a
// terminal error on Close.
type waiter struct {
	lane Lane
	ch   chan error
}

// laneWeights are the lanes' shares in the weighted dequeue: prediction 8,
// ingest 4, background 1. A lane with weight w is guaranteed a slot within
// ceil(totalWeight/w) consecutive handoffs — starvation-free.
var laneWeights = [NumLanes]int{LanePredict: 8, LaneIngest: 4, LaneLow: 1}

// NewGate builds a gate from a normalized Config (AdmissionEnabled must
// hold; Normalize fills Capacity).
func NewGate(cfg Config) *Gate {
	return &Gate{cfg: cfg}
}

// Enter admits the caller into lane, blocking while the gate is at capacity
// and the lane's queue has room. It returns nil on admission (the caller
// must Leave(lane) exactly once), a *RejectedError when the lane's queue is
// full, or ErrGateClosed when the gate shut down before or during the wait.
func (g *Gate) Enter(lane Lane) error {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return ErrGateClosed
	}
	if g.totalIn < g.cfg.Capacity {
		// Fast path. The invariant guarantees no lane has waiters here, so
		// admitting directly cannot jump the queue.
		g.totalIn++
		g.inService[lane]++
		g.admitted[lane]++
		g.mu.Unlock()
		return nil
	}
	if len(g.queues[lane]) >= g.cfg.MaxQueue {
		depth := len(g.queues[lane])
		g.shed[lane]++
		ra := g.retryAfterLocked(depth)
		g.mu.Unlock()
		return &RejectedError{Lane: lane, Depth: depth, RetryAfter: ra}
	}
	w := &waiter{lane: lane, ch: make(chan error, 1)}
	g.queues[lane] = append(g.queues[lane], w)
	g.mu.Unlock()
	return <-w.ch
}

// Leave releases the caller's slot: the slot is handed to the next waiter
// chosen by weighted round-robin, or returned to the free pool when no lane
// has one. Safe after Close (requests admitted before shutdown still call
// it on their way out).
func (g *Gate) Leave(lane Lane) {
	g.mu.Lock()
	now := time.Now()
	if !g.lastLeave.IsZero() {
		iv := now.Sub(g.lastLeave).Seconds()
		if g.svcEWMA == 0 {
			g.svcEWMA = iv
		} else {
			g.svcEWMA += 0.1 * (iv - g.svcEWMA)
		}
	}
	g.lastLeave = now
	g.completions++
	g.inService[lane]--
	if w := g.dequeueLocked(); w != nil {
		g.inService[w.lane]++
		g.admitted[w.lane]++
		g.mu.Unlock()
		w.ch <- nil
		return
	}
	g.totalIn--
	g.mu.Unlock()
}

// dequeueLocked picks the next waiter by one smooth-WRR step over the lanes
// that have one (nil when none do).
func (g *Gate) dequeueLocked() *waiter {
	total := 0
	for l := Lane(0); l < NumLanes; l++ {
		if len(g.queues[l]) > 0 {
			total += laneWeights[l]
		}
	}
	if total == 0 {
		return nil // no waiters
	}
	best := Lane(-1)
	for l := Lane(0); l < NumLanes; l++ {
		if len(g.queues[l]) == 0 {
			continue
		}
		g.credit[l] += laneWeights[l]
		if best < 0 || g.credit[l] > g.credit[best] {
			best = l
		}
	}
	g.credit[best] -= total
	return g.popLocked(best)
}

func (g *Gate) popLocked(l Lane) *waiter {
	q := g.queues[l]
	w := q[0]
	q[0] = nil // do not retain the dequeued waiter through the backing array
	g.queues[l] = q[1:]
	return w
}

// retryAfterLocked estimates when the lane will likely admit again: the
// requests ahead of this one (depth, plus itself) times the observed
// inter-completion interval, clamped to a sane HTTP Retry-After range.
func (g *Gate) retryAfterLocked(depth int) time.Duration {
	if g.svcEWMA == 0 {
		return time.Second // nothing completed yet: generic backoff
	}
	ra := time.Duration(float64(depth+1) * g.svcEWMA * float64(time.Second))
	if ra < 10*time.Millisecond {
		ra = 10 * time.Millisecond
	}
	if ra > 30*time.Second {
		ra = 30 * time.Second
	}
	return ra
}

// Close shuts the gate down: every queued waiter is woken with
// ErrGateClosed and later Enters fail with it immediately. Requests already
// admitted are unaffected — they finish and Leave as usual. Safe to call
// multiple times.
func (g *Gate) Close() {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return
	}
	g.closed = true
	var woken []*waiter
	for l := range g.queues {
		woken = append(woken, g.queues[l]...)
		g.queues[l] = nil
	}
	g.mu.Unlock()
	for _, w := range woken {
		w.ch <- ErrGateClosed
	}
}

// LaneStats is one lane's point-in-time admission summary.
type LaneStats struct {
	Queued    int    `json:"queued"`     // waiters blocked in the lane right now
	InService int    `json:"in_service"` // admitted through the lane and still in service
	Admitted  uint64 `json:"admitted"`   // total admissions
	Shed      uint64 `json:"shed"`       // total rejections (ErrOverload)
}

// Merge folds another gate's lane into s: every field sums.
func (s *LaneStats) Merge(o LaneStats) {
	s.Queued += o.Queued
	s.InService += o.InService
	s.Admitted += o.Admitted
	s.Shed += o.Shed
}

// GateStats is the gate's point-in-time summary and the "gate" block of
// /v1/stats, where the lanes appear keyed by name after the scalars.
type GateStats struct {
	Capacity    int                  `json:"capacity"`
	MaxQueue    int                  `json:"max_queue"`    // per-lane queue bound
	InService   int                  `json:"in_service"`   // slots in use across all lanes
	ServiceRate float64              `json:"service_rate"` // completions/sec from the Retry-After EWMA (0 until measured)
	Lanes       [NumLanes]LaneStats  `json:"-"`
	ByName      map[string]LaneStats `json:"lanes"` // Lanes on the wire, keyed by Lane.String
}

// Merge folds another engine's gate into s (the fleet view): capacities,
// occupancy, rates and every lane sum; the per-lane queue bound — one config
// for every shard — folds by max.
func (s *GateStats) Merge(o GateStats) {
	s.Capacity += o.Capacity
	s.MaxQueue = max(s.MaxQueue, o.MaxQueue)
	s.InService += o.InService
	s.ServiceRate += o.ServiceRate
	for l := range s.Lanes {
		s.Lanes[l].Merge(o.Lanes[l])
	}
	s.nameLanes()
}

// nameLanes fills the wire form of Lanes. It always builds a fresh map, so
// copies of a GateStats may share one safely.
func (s *GateStats) nameLanes() {
	s.ByName = make(map[string]LaneStats, NumLanes)
	for l, ls := range s.Lanes {
		s.ByName[Lane(l).String()] = ls
	}
}

// Stats snapshots the gate.
func (g *Gate) Stats() GateStats {
	g.mu.Lock()
	st := GateStats{Capacity: g.cfg.Capacity, MaxQueue: g.cfg.MaxQueue, InService: g.totalIn}
	if g.svcEWMA > 0 {
		st.ServiceRate = 1 / g.svcEWMA
	}
	for l := Lane(0); l < NumLanes; l++ {
		st.Lanes[l] = LaneStats{
			Queued:    len(g.queues[l]),
			InService: g.inService[l],
			Admitted:  g.admitted[l],
			Shed:      g.shed[l],
		}
	}
	g.mu.Unlock()
	st.nameLanes()
	return st
}
