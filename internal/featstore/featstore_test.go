package featstore

import (
	"testing"

	"taser/internal/cache"
	"taser/internal/device"
	"taser/internal/mathx"
	"taser/internal/tensor"
)

func hostMatrix(rows, cols int) *tensor.Matrix {
	m := tensor.New(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			m.Set(i, j, float64(i*100+j))
		}
	}
	return m
}

func TestSliceUncached(t *testing.T) {
	host := hostMatrix(5, 3)
	stats := device.NewXferStats()
	s := New(host, nil, stats)
	dst := tensor.New(3, 3)
	s.Slice([]int32{4, 0, 2}, dst)
	if dst.At(0, 1) != 401 || dst.At(1, 0) != 0 || dst.At(2, 2) != 202 {
		t.Fatalf("sliced values wrong: %v", dst)
	}
	if stats.PCIeRequests() != 3 || stats.VRAMRequests() != 0 {
		t.Fatal("uncached slicing must be all PCIe")
	}
	if stats.PCIeBytes() != 3*3*8 {
		t.Fatalf("pcie bytes %d", stats.PCIeBytes())
	}
}

func TestSlicePaddingRows(t *testing.T) {
	host := hostMatrix(3, 2)
	s := New(host, nil, nil)
	dst := tensor.New(2, 2)
	dst.Fill(9)
	s.Slice([]int32{-1, 1}, dst)
	if dst.At(0, 0) != 0 || dst.At(0, 1) != 0 {
		t.Fatal("padding id must produce a zero row")
	}
	if dst.At(1, 0) != 100 {
		t.Fatal("valid row after padding")
	}
}

func TestSliceShapePanics(t *testing.T) {
	s := New(hostMatrix(3, 2), nil, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Slice([]int32{0}, tensor.New(2, 2))
}

func TestFrequencyCacheServesFromVRAM(t *testing.T) {
	host := hostMatrix(10, 2)
	pol := cache.NewFrequency(10, 2, 0.5)
	stats := device.NewXferStats()
	s := New(host, pol, stats)
	dst := tensor.New(2, 2)

	// Epoch 1: rows 3 and 7 hot; everything misses.
	for i := 0; i < 5; i++ {
		s.Slice([]int32{3, 7}, dst)
	}
	if stats.VRAMRequests() != 0 {
		t.Fatal("cold cache must not serve from VRAM")
	}
	s.EndEpoch()
	refill := stats.PCIeRequests()
	stats.Reset()

	// Epoch 2: the same rows hit, with correct values from VRAM.
	s.Slice([]int32{3, 7}, dst)
	if dst.At(0, 1) != 301 || dst.At(1, 0) != 700 {
		t.Fatalf("cached values wrong: %v", dst)
	}
	if stats.VRAMRequests() != 2 || stats.PCIeRequests() != 0 {
		t.Fatalf("warm slice: vram=%d pcie=%d", stats.VRAMRequests(), stats.PCIeRequests())
	}
	if refill < 2 {
		t.Fatal("refill must have charged PCIe maintenance")
	}
}

func TestLRUCacheLoadsOnMiss(t *testing.T) {
	host := hostMatrix(10, 2)
	pol := cache.NewLRU(2)
	s := New(host, pol, nil)
	dst := tensor.New(1, 2)
	s.Slice([]int32{5}, dst) // miss, inserted
	s.Slice([]int32{5}, dst) // hit from VRAM
	if dst.At(0, 0) != 500 || dst.At(0, 1) != 501 {
		t.Fatalf("LRU-cached row wrong: %v", dst)
	}
	if pol.HitRate() != 0.5 {
		t.Fatalf("hit rate %v", pol.HitRate())
	}
}

func TestOracleRefillFlow(t *testing.T) {
	host := hostMatrix(6, 2)
	pol := cache.NewOracle(2)
	stats := device.NewXferStats()
	s := New(host, pol, stats)
	future := make([]int64, 6)
	future[2], future[4] = 10, 5
	s.refillLocked(pol.Reveal(future))
	dst := tensor.New(2, 2)
	stats.Reset()
	s.Slice([]int32{2, 4}, dst)
	if stats.VRAMRequests() != 2 {
		t.Fatal("revealed rows must be VRAM hits")
	}
	if dst.At(0, 0) != 200 || dst.At(1, 1) != 401 {
		t.Fatal("oracle-cached values wrong")
	}
}

func TestCacheReducesModeledTime(t *testing.T) {
	// The headline effect behind Table III: a warm cache cuts the modeled
	// feature-slicing time dramatically versus the uncached baseline.
	host := hostMatrix(1000, 128)
	rng := mathx.NewRNG(1)
	ids := make([]int32, 5000)
	for i := range ids {
		ids[i] = int32(rng.Intn(50)) // heavily skewed: 50 hot rows
	}
	dst := tensor.New(len(ids), 128)

	noCacheStats := device.NewXferStats()
	noCache := New(host, nil, noCacheStats)
	noCache.Slice(ids, dst)

	cachedStats := device.NewXferStats()
	pol := cache.NewFrequency(1000, 100, 0.7)
	cached := New(host, pol, cachedStats)
	cached.Slice(ids, dst) // warm-up epoch
	cached.EndEpoch()
	pol.ResetStats()
	cachedStats.Reset()
	cached.Slice(ids, dst) // measured epoch

	if pol.HitRate() < 0.99 {
		t.Fatalf("all hot rows should be cached, hit rate %v", pol.HitRate())
	}
	if cachedStats.ModeledTime()*5 > noCacheStats.ModeledTime() {
		t.Fatalf("cache should cut modeled slicing time ≥5×: cached=%v uncached=%v",
			cachedStats.ModeledTime(), noCacheStats.ModeledTime())
	}
}
