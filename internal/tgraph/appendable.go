package tgraph

import "fmt"

// AppendableTCSR is the incrementally published counterpart of TCSR: node
// adjacency is reached through a two-level chunked index instead of one flat
// Indptr/Nbr/Ts/Eid block, so consecutive snapshots of a growing stream can
// share every chunk whose nodes were untouched between publications.
//
// Layout: nodes are grouped into fixed-size chunks of adjChunkSize ids; chunk
// c holds the frozen per-node adjacency headers of nodes
// [c·adjChunkSize, (c+1)·adjChunkSize). A published snapshot is immutable:
//
//   - The chunk table and every chunk it points to are never mutated after
//     Snapshot returns — the next publication allocates fresh chunks for the
//     node ranges touched since, and shares the rest structurally.
//   - Each nodeAdj header is a full (len == cap) slice of the builder's
//     per-node adjacency at publication time. The builder only ever appends
//     to those arrays: later writes land strictly beyond every published
//     header's length (or in a freshly grown array), so the frozen prefix a
//     reader sees is write-free for the snapshot's lifetime.
//
// Readers therefore need no synchronization beyond receiving the snapshot
// pointer (serve.Engine publishes it through an atomic pointer swap), and the
// writer's per-publication cost is O(chunk table + touched chunks), not
// O(events) — see DESIGN.md §2 for the full argument.
type AppendableTCSR struct {
	numNodes int
	chunks   [][]nodeAdj // chunk c covers nodes [c<<adjChunkBits, ...)
}

// adjChunkBits sets the chunk granularity: 256 nodes per chunk balances the
// cost of re-freezing a touched chunk (256 header copies) against the size of
// the per-publication chunk-table copy (numNodes/256 pointers).
const (
	adjChunkBits = 8
	adjChunkSize = 1 << adjChunkBits
	adjChunkMask = adjChunkSize - 1
)

// nodeAdj freezes one node's adjacency prefix: three parallel full slices
// (len == cap) into the builder's append-only per-node arrays.
type nodeAdj struct {
	nbr []int32
	ts  []float64
	eid []int32
}

var _ Adjacency = (*AppendableTCSR)(nil)

// NumNodes implements Adjacency.
func (t *AppendableTCSR) NumNodes() int { return t.numNodes }

// Adj implements Adjacency: node v's full adjacency as immutable views.
func (t *AppendableTCSR) Adj(v int32) (nbr []int32, ts []float64, eid []int32) {
	na := &t.chunks[v>>adjChunkBits][v&adjChunkMask]
	return na.nbr, na.ts, na.eid
}

// Degree implements Adjacency.
func (t *AppendableTCSR) Degree(v int32) int {
	return len(t.chunks[v>>adjChunkBits][v&adjChunkMask].nbr)
}

// AdjacencyDiff compares two packed layouts entry-by-entry and describes the
// first difference, or returns "" when they are bitwise-identical for every
// node. It is the equivalence check behind the incremental-vs-full-repack
// guarantee (used by the tgraph, serve and integration tests; cheap enough
// for consistency assertions in tools).
func AdjacencyDiff(a, b Adjacency) string {
	if a.NumNodes() != b.NumNodes() {
		return fmt.Sprintf("NumNodes %d vs %d", a.NumNodes(), b.NumNodes())
	}
	for v := int32(0); int(v) < a.NumNodes(); v++ {
		an, at, ae := a.Adj(v)
		bn, bt, be := b.Adj(v)
		if len(an) != len(bn) {
			return fmt.Sprintf("node %d degree %d vs %d", v, len(an), len(bn))
		}
		for i := range an {
			if an[i] != bn[i] || at[i] != bt[i] || ae[i] != be[i] {
				return fmt.Sprintf("node %d entry %d: (%d,%v,%d) vs (%d,%v,%d)",
					v, i, an[i], at[i], ae[i], bn[i], bt[i], be[i])
			}
		}
	}
	return ""
}
