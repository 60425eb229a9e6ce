// Package device simulates the GPU execution and memory hierarchy that
// TASER's system optimizations target. It substitutes for CUDA per the
// repro plan in DESIGN.md.
//
// Two aspects of the hardware matter to the paper:
//
//  1. The SIMD execution model. The GPU neighbor finder (Algorithm 2) is
//     block-centric: one thread block per target node, one thread per sampled
//     neighbor. GPU.LaunchBlocks reproduces the block schedule — a grid of
//     independent blocks — and runs it in ascending block order on the
//     caller's goroutine; the kernel body iterates its "threads" as a
//     vectorized inner loop, mirroring how a warp executes in lockstep.
//
//  2. The memory hierarchy. Feature tensors live in host RAM; a VRAM-resident
//     cache serves hot rows at VRAM bandwidth while misses go over PCIe with
//     zero-copy access (unified virtual memory). Transfers perform the real
//     copy and additionally charge a calibrated cost model so the benchmark
//     harness can report Table III-style breakdowns with the same relative
//     shape as the paper's hardware.
package device

import (
	"sync/atomic"
	"time"
)

// GPU models a SIMD accelerator's block schedule. It holds no state: the
// blocks of a launch run one after another on the caller's goroutine, so the
// blocks of a kernel may share one scratch without synchronization.
type GPU struct{}

// New returns a GPU.
func New() *GPU { return &GPU{} }

// LaunchBlocks executes kernel(block) for every block in [0, blocks), in
// ascending order, and returns when the grid completes, like a synchronous
// CUDA kernel launch.
func (g *GPU) LaunchBlocks(blocks int, kernel func(block int)) {
	for b := 0; b < blocks; b++ {
		kernel(b)
	}
}

// XferKind distinguishes the two paths features can take to the compute units.
type XferKind int

const (
	// XferPCIe is a zero-copy read from host RAM over the interconnect.
	XferPCIe XferKind = iota
	// XferVRAM is a read served from device-resident memory (cache hit).
	XferVRAM
)

// CostModel holds the bandwidth/latency constants used to convert byte
// counts into modeled transfer time. Defaults approximate the paper's
// RTX 6000 Ada testbed (PCIe 4.0 x16, GDDR6).
type CostModel struct {
	PCIeBytesPerSec float64
	PCIeLatency     time.Duration // per request (kernel-visible page fault cost)
	VRAMBytesPerSec float64
}

// DefaultCostModel returns the calibrated constants documented in DESIGN.md.
func DefaultCostModel() CostModel {
	return CostModel{
		PCIeBytesPerSec: 16e9,
		PCIeLatency:     1200 * time.Nanosecond,
		VRAMBytesPerSec: 768e9,
	}
}

// XferStats accumulates transfer accounting. Safe for concurrent use.
type XferStats struct {
	Model CostModel

	pcieBytes atomic.Int64
	pcieReqs  atomic.Int64
	vramBytes atomic.Int64
	vramReqs  atomic.Int64
}

// NewXferStats returns stats with the default cost model.
func NewXferStats() *XferStats { return &XferStats{Model: DefaultCostModel()} }

// Record charges reqs requests of bytes in all to the given path: a caller
// that moves many rows totals them and records once, not once per row.
func (s *XferStats) Record(kind XferKind, reqs, bytes int64) {
	switch kind {
	case XferPCIe:
		s.pcieBytes.Add(bytes)
		s.pcieReqs.Add(reqs)
	case XferVRAM:
		s.vramBytes.Add(bytes)
		s.vramReqs.Add(reqs)
	}
}

// PCIeBytes, VRAMBytes, PCIeRequests, VRAMRequests report raw counters.
func (s *XferStats) PCIeBytes() int64    { return s.pcieBytes.Load() }
func (s *XferStats) VRAMBytes() int64    { return s.vramBytes.Load() }
func (s *XferStats) PCIeRequests() int64 { return s.pcieReqs.Load() }
func (s *XferStats) VRAMRequests() int64 { return s.vramReqs.Load() }

// Time converts one batch of transfer counters into simulated transfer time.
func (m CostModel) Time(pcieBytes, pcieReqs, vramBytes int64) time.Duration {
	pcie := float64(pcieBytes)/m.PCIeBytesPerSec*float64(time.Second) +
		float64(pcieReqs)*float64(m.PCIeLatency)
	vram := float64(vramBytes) / m.VRAMBytesPerSec * float64(time.Second)
	return time.Duration(pcie + vram)
}

// ModeledTime converts the accumulated counters into simulated transfer time.
func (s *XferStats) ModeledTime() time.Duration {
	return s.Model.Time(s.pcieBytes.Load(), s.pcieReqs.Load(), s.vramBytes.Load())
}

// Reset zeroes all counters.
func (s *XferStats) Reset() {
	s.pcieBytes.Store(0)
	s.pcieReqs.Store(0)
	s.vramBytes.Store(0)
	s.vramReqs.Store(0)
}
