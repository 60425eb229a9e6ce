package device

import (
	"testing"
	"time"
)

func TestLaunchBlocksCoversAllBlocks(t *testing.T) {
	g := New()
	const blocks = 100
	var hits [blocks]int
	g.LaunchBlocks(blocks, func(b int) { hits[b]++ })
	for i, n := range hits {
		if n != 1 {
			t.Fatalf("block %d executed %d times", i, n)
		}
	}
}

func TestLaunchBlocksSingleWorker(t *testing.T) {
	g := New()
	order := []int{}
	g.LaunchBlocks(5, func(b int) { order = append(order, b) })
	if len(order) != 5 {
		t.Fatalf("ran %d of 5 blocks", len(order))
	}
	for i, b := range order {
		if b != i {
			t.Fatalf("blocks ran in order %v, want ascending", order)
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
