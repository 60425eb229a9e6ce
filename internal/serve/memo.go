package serve

import (
	"sync/atomic"

	"taser/internal/sampler"
	"taser/internal/tensor"
)

// innerMemo is an engine's exact memo of inner embeddings: the model's
// output at the layer under the top — TGAT's inner layer — for a target
// (u, t), keyed by (u, t) and valid for one applied weight version. It is
// what the engine's InferenceBuilder asks (train.Memo) about each target of
// that layer, so a held target costs a row copy instead of its subtree.
//
// It is exact, not approximate like the embedding cache. Under MostRecent
// the row depends only on the weights and on u's events strictly before t
// (its neighborhood, their features, theirs in turn), and a row is stored
// only when t ≤ the pinned snapshot's watermark: the snapshot already holds
// every such event, and judge admits nothing behind the watermark, so the
// row can never change while the weights stay. A weight swap drops every
// entry. The key's t is the target's own float, as the build computes it; a
// rounding difference can only cost a hit.
//
// The scheduler goroutine owns it — it pins, the build looks up, the flush
// stores — so it takes no lock; Stats reads the counters alone.
type innerMemo struct {
	index map[memoKey]int32 // key → row
	rows  []float64         // row r at [r·d, (r+1)·d)
	d     int
	bound int // rows at which the table is cleared: NumNodes·Budget

	weights uint64 // the weight version every entry was computed under

	// Per flush: the pinned snapshot's watermark, and the storable misses
	// in lookup order.
	wm      float64
	hasWM   bool
	pending []pendingRow

	hits, misses, resets atomic.Uint64
	entries              atomic.Int64
}

type memoKey struct {
	node int32
	t    float64
}

// pendingRow is a storable miss: target i of the layer under the top.
type pendingRow struct {
	i   int32
	key memoKey
}

// newInnerMemo returns an empty memo of d-wide rows for the engine's
// constructor weights (version 1). It grows on demand up to numNodes·budget
// rows — a node has at most budget neighbors at any one time, so a table of
// live keys stays under the bound and only keys that the stream has made
// unreachable push it over.
func newInnerMemo(numNodes, budget, d int) *innerMemo {
	return &innerMemo{index: map[memoKey]int32{}, d: d, bound: numNodes * budget, weights: 1}
}

// pin starts a flush on snap under weight version wv: a moved version drops
// every entry, and only rows at or before snap's watermark will be stored.
func (m *innerMemo) pin(snap *Snapshot, wv uint64) {
	if wv != m.weights {
		m.clear()
		m.weights = wv
	}
	m.wm, m.hasWM = snap.Watermark, snap.HasWatermark
	m.pending = m.pending[:0]
}

// Lookup implements train.Memo. A miss at or before the watermark is
// remembered for store.
func (m *innerMemo) Lookup(i int, tg sampler.Target) []float64 {
	if !m.hasWM || tg.Time > m.wm { // not final yet: never stored, so never held
		m.misses.Add(1)
		return nil
	}
	k := memoKey{tg.Node, tg.Time}
	if r, ok := m.index[k]; ok {
		m.hits.Add(1)
		return m.rows[int(r)*m.d : int(r+1)*m.d]
	}
	m.misses.Add(1)
	m.pending = append(m.pending, pendingRow{int32(i), k})
	return nil
}

// store ends a flush: it copies the rows the forward computed for the
// storable misses — rows, one per target of computed (ascending), as
// models.CoTrainInfo hands them back — into the table. It runs after the
// forward, so no entry a flush relies on is dropped under it.
func (m *innerMemo) store(computed []int32, rows *tensor.Matrix) {
	j := 0
	for _, p := range m.pending {
		for j < len(computed) && computed[j] < p.i {
			j++
		}
		if j == len(computed) || computed[j] != p.i {
			continue // not computed: the model handed back no row for it
		}
		if _, ok := m.index[p.key]; ok {
			continue // the same (u, t) twice in one flush
		}
		if len(m.index) == m.bound {
			m.clear()
		}
		m.index[p.key] = int32(len(m.index))
		m.rows = append(m.rows, rows.Row(j)...)
	}
	m.entries.Store(int64(len(m.index)))
}

// clear drops every entry, keeping the storage, and counts a reset when
// there was anything to drop.
func (m *innerMemo) clear() {
	if len(m.index) == 0 {
		return
	}
	clear(m.index)
	m.rows = m.rows[:0]
	m.resets.Add(1)
	m.entries.Store(0)
}
