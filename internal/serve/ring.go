package serve

import (
	"fmt"
	"sort"
)

// Ring is a consistent-hash ring over the node-id space: each of K shards
// projects VNodes virtual points onto a 64-bit circle, and a node id is owned
// by the shard whose next clockwise point follows the node's hash. Two
// properties make it the fleet's partition function (DESIGN.md §13):
//
//   - Balance. With enough virtual points per shard (default 256) the owned
//     key mass per shard concentrates around 1/K — the max/min load ratio is
//     bounded regardless of how adversarially node ids are assigned, because
//     ownership is decided by a hash, not by the ids themselves.
//
//   - Stable resizing. A shard's points depend only on (seed, shard index,
//     replica index), never on K — growing a ring from K to K+1 shards adds
//     shard K's points and moves exactly the keys that now hash into their
//     arcs (an expected 1/(K+1) fraction). Every other key keeps its owner,
//     so a resize re-streams a bounded slice of the fleet instead of
//     reshuffling everything.
//
// A Ring is immutable after NewRing and safe for concurrent use. The same
// (shards, vnodes, seed) triple always yields the same assignment — shard
// layouts are reproducible across processes and restarts, which is what lets
// a recovered fleet validate that its durable store was written under the
// layout it is about to serve.
type Ring struct {
	points []uint64 // sorted virtual-point hashes
	owner  []int32  // owner[i] = shard owning points[i]
	seed   uint64
}

// DefaultVNodes is the virtual-point count per shard NewRing uses when the
// caller passes 0 — enough for a max/min owned-key ratio comfortably under
// 1.5 at any realistic K (the ring tests pin the bound through K=8). Lookup
// is a binary search over K·VNodes points, so doubling this costs one extra
// comparison per Owner call.
const DefaultVNodes = 256

// NewRing builds a ring of shards partitions with vnodes virtual points each
// (0 = DefaultVNodes), deterministically from seed.
func NewRing(shards, vnodes int, seed uint64) (*Ring, error) {
	if shards < 1 {
		return nil, fmt.Errorf("serve: ring needs at least one shard, got %d", shards)
	}
	if vnodes == 0 {
		vnodes = DefaultVNodes
	}
	if vnodes < 1 {
		return nil, fmt.Errorf("serve: ring needs at least one vnode per shard, got %d", vnodes)
	}
	r := &Ring{seed: seed}
	r.points = make([]uint64, 0, shards*vnodes)
	r.owner = make([]int32, 0, shards*vnodes)
	type pt struct {
		h uint64
		s int32
	}
	pts := make([]pt, 0, shards*vnodes)
	for s := 0; s < shards; s++ {
		for v := 0; v < vnodes; v++ {
			// The point hash depends on (seed, shard, replica) only — never on
			// the shard count — so resizing preserves every surviving shard's
			// points (the stable-remap property the tests pin).
			h := mix64(seed ^ mix64(uint64(s)<<32|uint64(v)+1))
			pts = append(pts, pt{h, int32(s)})
		}
	}
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].h != pts[j].h {
			return pts[i].h < pts[j].h
		}
		return pts[i].s < pts[j].s // deterministic tie-break (astronomically rare)
	})
	for _, p := range pts {
		r.points = append(r.points, p.h)
		r.owner = append(r.owner, p.s)
	}
	return r, nil
}

// Owner maps a node id to the shard that owns it: the shard of the first
// virtual point at or clockwise-after the node's hash.
func (r *Ring) Owner(node int32) int {
	h := mix64(r.seed ^ mix64(uint64(uint32(node))+0x5bf0_3635))
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i] >= h })
	if i == len(r.points) {
		i = 0 // wrap: the circle's first point
	}
	return int(r.owner[i])
}

// mix64 is SplitMix64's finalizer: a cheap, well-distributed 64-bit mixer
// (the same construction the WAL's synthetic-stream tests use for ids).
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
