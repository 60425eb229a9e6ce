package tgraph

import (
	"fmt"
	"math"
)

// Builder ingests a chronological event stream incrementally — the way
// dynamic graphs arrive in production (the paper's motivating deployments
// are streaming systems: fraud detection, recommendation). It maintains
// per-node growable adjacency so temporal neighborhoods are queryable while
// the stream is still open, and snapshots into the packed layout the
// high-throughput finders use.
//
// Snapshot publication is incremental: the per-node adjacency arrays are
// append-only, so each publication freezes fresh headers only for the node
// chunks touched since the previous one and shares every other chunk with
// the previous snapshot structurally (see AppendableTCSR). Publishing costs
// O(chunk table + touched chunks) instead of O(events), which is what keeps
// a long-running ingest path's total cost linear in the stream length rather
// than quadratic.
type Builder struct {
	numNodes int
	events   []Event
	lastT    float64 // meaningful only when len(events) > 0

	nbr [][]int32
	ts  [][]float64
	eid [][]int32

	// Incremental snapshot state: the previous publication's chunk table
	// (shared into the next one) and the chunks dirtied since.
	snapped   [][]nodeAdj
	dirty     []bool  // per chunk
	dirtyList []int32 // dirty chunk ids, for O(touched) iteration
}

// NewBuilder creates a builder over a fixed node-id space.
func NewBuilder(numNodes int) *Builder {
	numChunks := (numNodes + adjChunkSize - 1) >> adjChunkBits
	b := &Builder{
		numNodes:  numNodes,
		nbr:       make([][]int32, numNodes),
		ts:        make([][]float64, numNodes),
		eid:       make([][]int32, numNodes),
		dirty:     make([]bool, numChunks),
		dirtyList: make([]int32, numChunks),
	}
	// Every chunk starts dirty so the first Snapshot freezes the full table.
	for c := range b.dirty {
		b.dirty[c] = true
		b.dirtyList[c] = int32(c)
	}
	return b
}

// Add appends one interaction. Events must arrive in non-decreasing time
// order (the defining property of an event stream); violations error. The
// first event establishes the watermark at any finite timestamp, including
// t ≤ 0; non-finite timestamps are rejected — NaN would slip past the
// chronology check (NaN < t is always false) and corrupt the sorted-ts
// invariant the pivot searches rely on, and ±Inf would collide with
// sentinel values downstream consumers reserve for "no events".
func (b *Builder) Add(src, dst int32, t float64) error {
	if err := b.Check(src, dst, t); err != nil {
		return err
	}
	if len(b.events) > 0 && t < b.lastT {
		return fmt.Errorf("tgraph: event at t=%v arrived after t=%v (stream must be chronological)", t, b.lastT)
	}
	b.lastT = t
	id := int32(len(b.events))
	b.events = append(b.events, Event{Src: src, Dst: dst, Time: t})
	b.nbr[src] = append(b.nbr[src], dst)
	b.ts[src] = append(b.ts[src], t)
	b.eid[src] = append(b.eid[src], id)
	b.markDirty(src)
	if src != dst {
		b.nbr[dst] = append(b.nbr[dst], src)
		b.ts[dst] = append(b.ts[dst], t)
		b.eid[dst] = append(b.eid[dst], id)
		b.markDirty(dst)
	}
	return nil
}

// Check reports whether the event is well-formed for this builder, without
// mutating it: endpoints in range and a finite timestamp. Add also enforces
// chronology against LastTime; a caller that judges events before admitting
// them (the serving engine checks a whole bulk run against a running
// watermark, then WAL-logs each event before adding it) checks that itself.
func (b *Builder) Check(src, dst int32, t float64) error {
	if src < 0 || int(src) >= b.numNodes || dst < 0 || int(dst) >= b.numNodes {
		return fmt.Errorf("tgraph: endpoints (%d, %d) out of range [0, %d)", src, dst, b.numNodes)
	}
	if math.IsNaN(t) || math.IsInf(t, 0) {
		return fmt.Errorf("tgraph: event timestamp %v is not finite", t)
	}
	return nil
}

// markDirty records that v's chunk must be re-frozen at the next Snapshot.
func (b *Builder) markDirty(v int32) {
	c := v >> adjChunkBits
	if !b.dirty[c] {
		b.dirty[c] = true
		b.dirtyList = append(b.dirtyList, c)
	}
}

// NumEvents reports the events ingested so far.
func (b *Builder) NumEvents() int { return len(b.events) }

// LastTime reports the stream watermark — the timestamp of the most recently
// ingested event — and whether one exists. ok is false for an empty builder,
// which is distinct from a real t=0 watermark: Add accepts any first
// timestamp (negative included), and only enforces chronology afterwards.
// Callers that own the builder surface the watermark in admission errors and
// staleness decisions.
func (b *Builder) LastTime() (t float64, ok bool) {
	return b.lastT, len(b.events) > 0
}

// Snapshot publishes the current stream as an immutable Graph + packed
// adjacency pair; the builder remains usable afterwards. The cost is
// proportional to the delta since the previous Snapshot, not the stream
// length: the event list and every untouched node's adjacency are shared
// structurally (Add only ever appends, so published prefixes are write-free
// — see AppendableTCSR for the immutability argument), and only the node
// chunks dirtied since the last publication are re-frozen.
func (b *Builder) Snapshot() (*Graph, *AppendableTCSR) {
	numChunks := len(b.dirty)
	chunks := make([][]nodeAdj, numChunks)
	copy(chunks, b.snapped)
	for _, c := range b.dirtyList {
		chunks[c] = b.freezeChunk(int(c))
		b.dirty[c] = false
	}
	b.dirtyList = b.dirtyList[:0]
	b.snapped = chunks

	// Add validated and ordered every event, so the stream prefix is exactly
	// what NewGraph's stable sort would produce — share it, don't copy it.
	// The full slice expression caps the view so a (misbehaving) reader
	// appending to Events cannot reach the builder's backing array.
	g := &Graph{NumNodes: b.numNodes, Events: b.events[:len(b.events):len(b.events)]}
	return g, &AppendableTCSR{numNodes: b.numNodes, chunks: chunks}
}

// freezeChunk packs the current adjacency headers of chunk c's nodes into a
// fresh immutable chunk.
func (b *Builder) freezeChunk(c int) []nodeAdj {
	lo := c << adjChunkBits
	hi := lo + adjChunkSize
	if hi > b.numNodes {
		hi = b.numNodes
	}
	out := make([]nodeAdj, hi-lo)
	for i := range out {
		v := lo + i
		n, s, e := b.nbr[v], b.ts[v], b.eid[v]
		// Full (len == cap) views: a later in-place append by the builder
		// writes only beyond len, a capacity-exceeding append relocates —
		// either way the frozen prefix is never written again.
		out[i] = nodeAdj{nbr: n[:len(n):len(n)], ts: s[:len(s):len(s)], eid: e[:len(e):len(e)]}
	}
	return out
}
