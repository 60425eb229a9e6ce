// Package featstore serves node/edge feature rows to the training loop
// through the simulated GPU memory hierarchy: a VRAM-resident cache front-end
// (managed by a cache.Policy) backed by host RAM reached over PCIe zero-copy
// (§III-D). Slicing both performs the real copy and charges the transfer cost
// model, so benchmark breakdowns reflect cache behavior.
package featstore

import (
	"fmt"
	"time"

	"taser/internal/cache"
	"taser/internal/device"
	"taser/internal/tensor"
)

// Store is one feature matrix (e.g. all edge features) behind a cache. Its
// cache policy learns from the access stream, so a Store is
// single-goroutine state, like the build path that owns it.
type Store struct {
	host   *tensor.Matrix // numRows×dim, lives in "RAM"
	vram   *tensor.Matrix // capacity×dim, lives in "VRAM"
	policy cache.Policy   // nil means uncached: every read goes over PCIe
	stats  *device.XferStats
}

// New builds a store over host features. policy may be nil for the uncached
// baseline. stats may be nil to disable accounting.
func New(host *tensor.Matrix, policy cache.Policy, stats *device.XferStats) *Store {
	s := &Store{host: host, policy: policy, stats: stats}
	if policy != nil && policy.Capacity() > 0 {
		s.vram = tensor.New(policy.Capacity(), host.Cols)
	}
	return s
}

// rowBytes is the transfer size of one feature row.
func (s *Store) rowBytes() int64 { return int64(s.host.Cols) * 8 }

// Slice copies feature rows ids[i] into dst row i and returns the modeled
// transfer time of exactly this call's traffic (0 when accounting is off).
// Negative ids produce zero rows (neighborhood padding). Rows resident in
// the cache are served from VRAM; the rest are fetched over PCIe and the
// access is reported to the cache policy so it can learn the pattern. A
// zero-width store records nothing and models 0.
//
// The per-call return value lets the caller charge exactly this call's
// traffic to its FS bucket without diffing the XferStats counters around it.
func (s *Store) Slice(ids []int32, dst *tensor.Matrix) time.Duration {
	if dst.Rows != len(ids) || dst.Cols != s.host.Cols {
		panic(fmt.Sprintf("featstore: Slice dst %dx%d want %dx%d",
			dst.Rows, dst.Cols, len(ids), s.host.Cols))
	}
	if s.host.Cols == 0 {
		// A zero-width row is no transfer: nothing to copy, count or model,
		// and nothing for the policy to learn from.
		return 0
	}
	var pcieReqs, vramReqs int64
	for i := 0; i < len(ids); i++ {
		id := ids[i]
		if id < 0 {
			// A run of padding rows — a short neighborhood's tail, or every
			// slot of a target nothing is built under — is one clear.
			j := i + 1
			for j < len(ids) && ids[j] < 0 {
				j++
			}
			clear(dst.Data[i*dst.Cols : j*dst.Cols])
			i = j - 1
			continue
		}
		out := dst.Row(i)
		src, kind := s.host.Row(int(id)), device.XferPCIe
		if s.policy != nil {
			if slot, hit := s.policy.Access(id); hit {
				// LRU-style policies may have rotated residency on a miss;
				// Frequency never does mid-epoch, so a hit is always valid.
				src, kind = s.vram.Row(slot), device.XferVRAM
			} else if slot, ok := s.policy.Lookup(id); ok {
				// Per-access policy (LRU) inserted id on the miss: load the
				// row into its new slot. Maintenance traffic is PCIe.
				copy(s.vram.Row(slot), src)
			}
		}
		copy(out, src)
		if kind == device.XferVRAM {
			vramReqs++
		} else {
			pcieReqs++
		}
	}
	if s.stats == nil {
		return 0
	}
	// One charge per path for the whole call.
	pcieBytes, vramBytes := pcieReqs*s.rowBytes(), vramReqs*s.rowBytes()
	s.stats.Record(device.XferPCIe, pcieReqs, pcieBytes)
	s.stats.Record(device.XferVRAM, vramReqs, vramBytes)
	return s.stats.Model.Time(pcieBytes, pcieReqs, vramBytes)
}

// EndEpoch advances the cache policy and loads newly resident rows into
// VRAM. The refill is charged as PCIe maintenance traffic.
func (s *Store) EndEpoch() {
	if s.policy == nil {
		return
	}
	s.refill(s.policy.EndEpoch())
}

// refill loads rows (already marked resident by the policy) into their VRAM
// slots.
func (s *Store) refill(inserted []int32) {
	if s.vram == nil {
		return
	}
	for _, id := range inserted {
		slot, ok := s.policy.Lookup(id)
		if !ok {
			panic(fmt.Sprintf("featstore: refill id %d not resident", id))
		}
		copy(s.vram.Row(slot), s.host.Row(int(id)))
	}
	if s.stats != nil {
		n := int64(len(inserted))
		s.stats.Record(device.XferPCIe, n, n*s.rowBytes())
	}
}

// Policy exposes the cache policy (nil when uncached).
func (s *Store) Policy() cache.Policy { return s.policy }
