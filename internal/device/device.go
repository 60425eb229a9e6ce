// Package device simulates the GPU execution and memory hierarchy that
// TASER's system optimizations target. It substitutes for CUDA per the
// repro plan in DESIGN.md.
//
// Two aspects of the hardware matter to the paper:
//
//  1. The SIMD execution model. The GPU neighbor finder (Algorithm 2) is
//     block-centric: one thread block per target node, one thread per sampled
//     neighbor. GPU.LaunchBlocks reproduces this schedule by fanning block
//     indices across a fixed worker pool (one worker per host core, standing
//     in for an SM); the kernel body iterates its "threads" as a vectorized
//     inner loop, mirroring how a warp executes in lockstep.
//
//  2. The memory hierarchy. Feature tensors live in host RAM; a VRAM-resident
//     cache serves hot rows at VRAM bandwidth while misses go over PCIe with
//     zero-copy access (unified virtual memory). Transfers perform the real
//     copy and additionally charge a calibrated cost model so the benchmark
//     harness can report Table III-style breakdowns with the same relative
//     shape as the paper's hardware.
package device

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// GPU models a SIMD accelerator with a fixed number of concurrently
// executing blocks (persistent worker goroutines ≈ streaming
// multiprocessors). Workers are spawned once, on the first multi-worker
// launch, and then fed launches over a channel — real accelerators keep
// their SMs powered between kernels, and spawning goroutines per launch
// made dispatch overhead scale with launch frequency, which the serving
// path's many small batches would amplify.
type GPU struct {
	workers int

	poolOnce sync.Once
	work     chan *launch
}

// launch is one kernel grid in flight: workers atomically claim block
// indices until the grid is exhausted, then signal completion.
type launch struct {
	blocks int64
	next   int64
	kernel func(worker, block int)
	wg     sync.WaitGroup
}

// run executes the work-stealing loop on behalf of worker w.
func (l *launch) run(w int) {
	for {
		b := atomic.AddInt64(&l.next, 1) - 1
		if b >= l.blocks {
			break
		}
		l.kernel(w, int(b))
	}
	l.wg.Done()
}

// New returns a GPU using one worker per available host core.
func New() *GPU { return NewWithWorkers(runtime.GOMAXPROCS(0)) }

// NewWithWorkers returns a GPU with an explicit worker count; useful for
// scaling studies and tests.
func NewWithWorkers(workers int) *GPU {
	if workers < 1 {
		workers = 1
	}
	return &GPU{workers: workers}
}

// Workers reports the parallel block capacity.
func (g *GPU) Workers() int { return g.workers }

// LaunchBlocks executes kernel(block) for every block in [0, blocks),
// scheduling blocks across the worker pool. It blocks until the grid
// completes, like a synchronous CUDA kernel launch.
func (g *GPU) LaunchBlocks(blocks int, kernel func(block int)) {
	g.LaunchBlocksIndexed(blocks, func(_, b int) { kernel(b) })
}

// LaunchBlocksIndexed is LaunchBlocks with the executing worker's index
// passed to the kernel (the SM id, in hardware terms). Worker indices lie in
// [0, Workers()); a kernel can therefore keep per-worker scratch — RNG state,
// sampling bitmaps — without any synchronization, which is what makes the
// neighbor-finder kernels allocation-free in steady state. Each worker
// goroutine owns a fixed index for its lifetime and processes one launch at
// a time, so two blocks never run concurrently on the same index even when
// launches overlap.
func (g *GPU) LaunchBlocksIndexed(blocks int, kernel func(worker, block int)) {
	if blocks <= 0 {
		return
	}
	participants := g.workers
	if participants > blocks {
		participants = blocks
	}
	if participants == 1 {
		for b := 0; b < blocks; b++ {
			kernel(0, b)
		}
		return
	}
	work := g.pool()
	l := &launch{blocks: int64(blocks), kernel: kernel}
	// One handoff per participating worker. A worker that drains the grid
	// early may pick up a second handoff of the same launch and complete it
	// immediately; wg counts handoffs, so the accounting stays exact.
	l.wg.Add(participants)
	for i := 0; i < participants; i++ {
		work <- l
	}
	l.wg.Wait()
	// The pool channel must outlive the sends above: keep g (whose finalizer
	// closes the channel) reachable until the launch has fully completed.
	runtime.KeepAlive(g)
}

// pool lazily starts the persistent workers. They capture only the work
// channel, so an unreachable GPU is collectable: its finalizer closes the
// channel and the workers exit instead of leaking.
func (g *GPU) pool() chan *launch {
	g.poolOnce.Do(func() {
		g.work = make(chan *launch)
		for w := 0; w < g.workers; w++ {
			go func(w int, work chan *launch) {
				for l := range work {
					l.run(w)
				}
			}(w, g.work)
		}
		runtime.SetFinalizer(g, func(g *GPU) { close(g.work) })
	})
	return g.work
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
