package device

import (
	"sync/atomic"
	"testing"
	"time"
)

func TestLaunchBlocksCoversAllBlocks(t *testing.T) {
	g := NewWithWorkers(4)
	const blocks = 100
	var hits [blocks]atomic.Int32
	g.LaunchBlocks(blocks, func(b int) { hits[b].Add(1) })
	for i := range hits {
		if hits[i].Load() != 1 {
			t.Fatalf("block %d executed %d times", i, hits[i].Load())
		}
	}
}

func TestLaunchBlocksSingleWorker(t *testing.T) {
	g := NewWithWorkers(1)
	order := []int{}
	g.LaunchBlocks(5, func(b int) { order = append(order, b) })
	for i, b := range order {
		if b != i {
			t.Fatal("single-worker launch must be sequential in-order")
		}
	}
}

func TestLaunchBlocksZeroAndNegative(t *testing.T) {
	g := New()
	ran := false
	g.LaunchBlocks(0, func(int) { ran = true })
	g.LaunchBlocks(-3, func(int) { ran = true })
	if ran {
		t.Fatal("no blocks should run")
	}
}

func TestLaunchBlocksIndexedWorkerBounds(t *testing.T) {
	g := NewWithWorkers(4)
	const blocks = 64
	var hits [blocks]atomic.Int32
	var badWorker atomic.Int32
	g.LaunchBlocksIndexed(blocks, func(worker, b int) {
		if worker < 0 || worker >= 4 {
			badWorker.Store(1)
		}
		hits[b].Add(1)
	})
	if badWorker.Load() != 0 {
		t.Fatal("worker index out of [0, Workers())")
	}
	for i := range hits {
		if hits[i].Load() != 1 {
			t.Fatalf("block %d executed %d times", i, hits[i].Load())
		}
	}
}

// TestLaunchBlocksIndexedScratchIsolation is the property the finders'
// per-worker fill scratch relies on: two blocks never run concurrently on
// the same worker index.
func TestLaunchBlocksIndexedScratchIsolation(t *testing.T) {
	g := NewWithWorkers(4)
	var inUse [4]atomic.Int32
	var clash atomic.Int32
	g.LaunchBlocksIndexed(256, func(worker, b int) {
		if inUse[worker].Add(1) != 1 {
			clash.Store(1)
		}
		time.Sleep(10 * time.Microsecond)
		inUse[worker].Add(-1)
	})
	if clash.Load() != 0 {
		t.Fatal("two blocks overlapped on one worker index")
	}
}

func TestNewWithWorkersClamps(t *testing.T) {
	if NewWithWorkers(0).Workers() != 1 || NewWithWorkers(-5).Workers() != 1 {
		t.Fatal("workers must clamp to >= 1")
	}
	if New().Workers() < 1 {
		t.Fatal("default workers")
	}
}

func TestLaunchBlocksMoreWorkersThanBlocks(t *testing.T) {
	g := NewWithWorkers(64)
	var count atomic.Int32
	g.LaunchBlocks(3, func(int) { count.Add(1) })
	if count.Load() != 3 {
		t.Fatal("all blocks must run exactly once")
	}
}

func TestXferStatsAccounting(t *testing.T) {
	s := NewXferStats()
	s.Record(XferPCIe, 1, 1000)
	s.Record(XferPCIe, 1, 2000)
	s.Record(XferVRAM, 1, 500)
	if s.PCIeBytes() != 3000 || s.PCIeRequests() != 2 {
		t.Fatal("pcie counters")
	}
	if s.VRAMBytes() != 500 || s.VRAMRequests() != 1 {
		t.Fatal("vram counters")
	}
	s.Reset()
	if s.PCIeBytes() != 0 || s.VRAMBytes() != 0 {
		t.Fatal("reset")
	}
}

func TestModeledTimeShape(t *testing.T) {
	s := NewXferStats()
	// 16 GB over PCIe at 16 GB/s ≈ 1s (+2 latencies).
	s.Record(XferPCIe, 1, 16_000_000_000)
	got := s.ModeledTime()
	if got < 900*time.Millisecond || got > 1100*time.Millisecond {
		t.Fatalf("pcie modeled time %v", got)
	}
	// The same bytes over VRAM must be dramatically cheaper.
	v := NewXferStats()
	v.Record(XferVRAM, 1, 16_000_000_000)
	if v.ModeledTime() >= got/10 {
		t.Fatalf("vram (%v) must be ≫ faster than pcie (%v)", v.ModeledTime(), got)
	}
}

func TestModeledTimeLatencyDominatesSmallTransfers(t *testing.T) {
	s := NewXferStats()
	for i := 0; i < 1000; i++ {
		s.Record(XferPCIe, 1, 4) // 4-byte reads: latency-bound
	}
	// 1000 requests × 1.2µs = 1.2ms ≫ 4KB/16GBps ≈ 0.25µs.
	if s.ModeledTime() < time.Millisecond {
		t.Fatalf("latency should dominate: %v", s.ModeledTime())
	}
}

func TestLaunchBlocksParallelismIsReal(t *testing.T) {
	// With W workers, W blocks sleeping concurrently must finish in ~1 sleep.
	g := NewWithWorkers(8)
	start := time.Now()
	g.LaunchBlocks(8, func(int) { time.Sleep(20 * time.Millisecond) })
	if elapsed := time.Since(start); elapsed > 120*time.Millisecond {
		t.Fatalf("blocks did not run in parallel: %v", elapsed)
	}
}
