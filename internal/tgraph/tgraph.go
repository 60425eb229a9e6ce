// Package tgraph implements continuous-time dynamic graphs (CTDGs) as
// chronological event streams and the T-CSR storage layout from TGL
// (Zhou et al., VLDB 2022) that TASER's neighbor finders are built on.
//
// An event is one timestamped interaction (u, v, t) with an optional edge
// feature row identified by the event's index. The temporal neighborhood
// N(v, t) is the set of (u, t_u) with an event between v and u at t_u < t;
// T-CSR stores every node's incident events sorted by timestamp so that the
// neighborhood is a prefix of the node's adjacency slice, locatable with a
// single binary search.
package tgraph

import (
	"fmt"
	"sort"
)

// Event is one timestamped interaction. Idx doubles as the edge-feature row.
type Event struct {
	Src, Dst int32
	Time     float64
}

// Graph is a CTDG: a node count plus chronologically sorted events.
type Graph struct {
	NumNodes int
	Events   []Event // sorted by Time, ties broken by original order
}

// NewGraph validates and wraps events; they are sorted in place by time
// (stable, so simultaneous events keep their input order).
func NewGraph(numNodes int, events []Event) (*Graph, error) {
	for i, e := range events {
		if e.Src < 0 || int(e.Src) >= numNodes || e.Dst < 0 || int(e.Dst) >= numNodes {
			return nil, fmt.Errorf("tgraph: event %d endpoints (%d, %d) out of range [0, %d)",
				i, e.Src, e.Dst, numNodes)
		}
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].Time < events[j].Time })
	return &Graph{NumNodes: numNodes, Events: events}, nil
}

// NumEvents returns the interaction count.
func (g *Graph) NumEvents() int { return len(g.Events) }

// Adjacency is what differs between the packed temporal-adjacency layouts:
// the flat TCSR built in one batch pass, and the chunked AppendableTCSR that
// Builder.Snapshot publishes incrementally. Neighbor finders, serving
// snapshots and evaluation access packed graphs exclusively through it, and
// search a node's timestamps with Pivot or PivotLinear, so they are oblivious
// to how a snapshot was built — the correctness bar for incremental
// publication is that both layouts return bitwise-identical slices for the
// same event stream.
type Adjacency interface {
	// NumNodes returns the node count.
	NumNodes() int
	// Degree returns the total (lifetime) number of adjacency entries of v.
	Degree(v int32) int
	// Adj returns node v's full adjacency as three parallel slices (views),
	// sorted by timestamp. Callers must not mutate them.
	Adj(v int32) (nbr []int32, ts []float64, eid []int32)
}

// TCSR is the temporal CSR layout: for each node, its incident events
// (both directions of every interaction) sorted by timestamp.
type TCSR struct {
	Indptr []int64   // len NumNodes+1; node v owns entries [Indptr[v], Indptr[v+1])
	Nbr    []int32   // neighbor node id per entry
	Ts     []float64 // event timestamp per entry
	Eid    []int32   // originating event index (edge-feature row) per entry
}

var _ Adjacency = (*TCSR)(nil)

// Pivot returns |N(v, tm)| for a node whose adjacency timestamps are ts: the
// number of entries strictly before tm, by binary search — the per-block step
// of the GPU neighbor finder (Algorithm 2, line 5). At tm = −Inf it is 0.
func Pivot(ts []float64, tm float64) int {
	lo, hi := 0, len(ts)
	for lo < hi {
		mid := (lo + hi) / 2
		if ts[mid] < tm {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// PivotLinear is Pivot by forward linear scan — the access pattern of the
// original Python neighbor finder in TGAT.
func PivotLinear(ts []float64, tm float64) int {
	p := 0
	for p < len(ts) && ts[p] < tm {
		p++
	}
	return p
}

// BuildTCSR constructs the T-CSR from a graph. Every event (u, v, t)
// contributes an entry to both u's and v's adjacency (interactions are
// symmetric for neighborhood aggregation, as in TGL). Self-loops contribute
// a single entry.
func BuildTCSR(g *Graph) *TCSR {
	n := g.NumNodes
	deg := make([]int64, n)
	for _, e := range g.Events {
		deg[e.Src]++
		if e.Src != e.Dst {
			deg[e.Dst]++
		}
	}
	t := &TCSR{Indptr: make([]int64, n+1)}
	for v := 0; v < n; v++ {
		t.Indptr[v+1] = t.Indptr[v] + deg[v]
	}
	total := t.Indptr[n]
	t.Nbr = make([]int32, total)
	t.Ts = make([]float64, total)
	t.Eid = make([]int32, total)
	cursor := make([]int64, n)
	copy(cursor, t.Indptr[:n])
	// Events are chronologically sorted, so appending in order keeps each
	// node's slice sorted by time with no extra sort pass.
	for i, e := range g.Events {
		c := cursor[e.Src]
		t.Nbr[c], t.Ts[c], t.Eid[c] = e.Dst, e.Time, int32(i)
		cursor[e.Src]++
		if e.Src != e.Dst {
			c = cursor[e.Dst]
			t.Nbr[c], t.Ts[c], t.Eid[c] = e.Src, e.Time, int32(i)
			cursor[e.Dst]++
		}
	}
	return t
}

// Degree returns the total (lifetime) number of adjacency entries of v.
func (t *TCSR) Degree(v int32) int {
	return int(t.Indptr[v+1] - t.Indptr[v])
}

// NumNodes returns the node count.
func (t *TCSR) NumNodes() int { return len(t.Indptr) - 1 }

// Adj returns node v's full adjacency as three parallel slices (views).
func (t *TCSR) Adj(v int32) (nbr []int32, ts []float64, eid []int32) {
	lo, hi := t.Indptr[v], t.Indptr[v+1]
	return t.Nbr[lo:hi], t.Ts[lo:hi], t.Eid[lo:hi]
}
