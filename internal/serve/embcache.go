package serve

import (
	"math"
	"sync"

	"taser/internal/cache"
	"taser/internal/tensor"
)

// embCache memoizes node embeddings across micro-batches, layered on
// internal/cache's LRU for slot management and recency-based eviction.
//
// The key is (node, lastTs, weightVersion): lastTs is the node's last event
// time in the snapshot the entry was computed on, and weightVersion is the
// engine's applied model-weight version at computation time. Ingesting an
// event that touches the node advances lastTs in subsequent snapshots, and
// a fine-tuner publishing new weights advances the weight version — either
// way the stale entry stops matching, with no explicit invalidation hook
// between writer/publisher and the cache. An entry served at query time t'
// was computed at some earlier t ≥ lastTs over the *same* neighborhood with
// the *same* parameters; the only divergence is the time-encoding drift
// Δt − Δt', bounded by the interval between the two queries (see DESIGN.md's
// staleness analysis). Without the weight component, an embedding computed
// under old parameters would keep being served after a weight swap for as
// long as the node stayed event-quiet — the bug this key closes.
type embCache struct {
	mu     sync.Mutex
	lru    *cache.LRU
	lastTs []float64      // per-slot key; NaN marks a reserved-but-unfilled slot
	wv     []uint64       // per-slot weight version the entry was computed under
	emb    *tensor.Matrix // capacity×dim embedding rows

	hits, stale, misses uint64
}

func newEmbCache(capacity, dim int) *embCache {
	c := &embCache{
		lru:    cache.NewLRU(capacity),
		lastTs: make([]float64, capacity),
		wv:     make([]uint64, capacity),
		emb:    tensor.New(capacity, dim),
	}
	for i := range c.lastTs {
		c.lastTs[i] = math.NaN() // never equal to any real key
	}
	return c
}

// get copies the cached embedding for (node, lastTs, wv) into dst and
// reports a hit. A miss reserves the node's slot (evicting the LRU victim),
// marking it unfilled so no later lookup can hit garbage; the caller is
// expected to compute the embedding and put it.
func (c *embCache) get(node int32, lastTs float64, wv uint64, dst []float64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	slot, resident := c.lru.Access(node)
	if resident && c.lastTs[slot] == lastTs && c.wv[slot] == wv {
		c.hits++
		copy(dst, c.emb.Row(slot))
		return true
	}
	if resident && !math.IsNaN(c.lastTs[slot]) {
		// A filled entry invalidated by ingest or a weight swap. A slot an
		// earlier miss of this flush reserved (NaN, put pending) is not.
		c.stale++
	}
	c.misses++
	c.lastTs[slot] = math.NaN()
	return false
}

// put fills the slot reserved by a prior get. If the node was evicted in the
// meantime (another miss in the same flush claimed its slot), the value is
// simply dropped.
func (c *embCache) put(node int32, lastTs float64, wv uint64, emb []float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	slot, ok := c.lru.Lookup(node)
	if !ok {
		return
	}
	c.lastTs[slot] = lastTs
	c.wv[slot] = wv
	copy(c.emb.Row(slot), emb)
}

// counts returns (hits, stale, misses); stale lookups are a subset of misses.
func (c *embCache) counts() (hits, stale, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.stale, c.misses
}
