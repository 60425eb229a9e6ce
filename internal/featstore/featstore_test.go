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

// TestZeroWidthSliceIsNoTransfer: a store over zero-width rows (a dataset
// without node features) moves no bytes, so a slice from it records no
// request on either path and models no time, whatever the ids.
func TestZeroWidthSliceIsNoTransfer(t *testing.T) {
	stats := device.NewXferStats()
	s := New(tensor.New(5, 0), nil, stats)
	if got := s.Slice([]int32{4, 0, -1, 2}, tensor.New(4, 0)); got != 0 {
		t.Fatalf("a zero-width slice models %v, want 0", got)
	}
	if stats.PCIeRequests() != 0 || stats.VRAMRequests() != 0 || stats.PCIeBytes() != 0 {
		t.Fatalf("a zero-width slice recorded %d PCIe / %d VRAM requests, %d PCIe bytes",
			stats.PCIeRequests(), stats.VRAMRequests(), stats.PCIeBytes())
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
	s.refill(pol.Reveal(future))
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

// TestSliceRecordsPerCallTotals: Slice charges a call's rows to the shared
// counters once per path, and the totals, the accumulated modeled time and
// every call's own modeled time equal charging the same stream one request
// per row — replayed here against a second LRU of the same capacity, which
// sees the same access sequence and so hits and misses on the same rows.
func TestSliceRecordsPerCallTotals(t *testing.T) {
	const rows, cols, capacity = 40, 3, 8
	rng := mathx.NewRNG(5)
	stats, perRow := device.NewXferStats(), device.NewXferStats()
	s := New(hostMatrix(rows, cols), cache.NewLRU(capacity), stats)
	shadow := cache.NewLRU(capacity)
	rowBytes := int64(cols * 8)
	for call := 0; call < 50; call++ {
		ids := make([]int32, 1+rng.Intn(12))
		for i := range ids {
			ids[i] = int32(rng.Intn(rows+4)) - 4 // a few padding rows
		}
		got := s.Slice(ids, tensor.New(len(ids), cols))
		var pcieBytes, pcieReqs, vramBytes int64
		for _, id := range ids {
			if id < 0 {
				continue
			}
			if _, hit := shadow.Access(id); hit {
				perRow.Record(device.XferVRAM, 1, rowBytes)
				vramBytes += rowBytes
			} else {
				perRow.Record(device.XferPCIe, 1, rowBytes)
				pcieBytes += rowBytes
				pcieReqs++
			}
		}
		if want := perRow.Model.Time(pcieBytes, pcieReqs, vramBytes); got != want {
			t.Fatalf("call %d: modeled %v, per-row %v", call, got, want)
		}
	}
	if stats.PCIeBytes() != perRow.PCIeBytes() || stats.PCIeRequests() != perRow.PCIeRequests() ||
		stats.VRAMBytes() != perRow.VRAMBytes() || stats.VRAMRequests() != perRow.VRAMRequests() {
		t.Fatalf("totals pcie %d B / %d req, vram %d B / %d req; per-row pcie %d B / %d req, vram %d B / %d req",
			stats.PCIeBytes(), stats.PCIeRequests(), stats.VRAMBytes(), stats.VRAMRequests(),
			perRow.PCIeBytes(), perRow.PCIeRequests(), perRow.VRAMBytes(), perRow.VRAMRequests())
	}
	if stats.VRAMRequests() == 0 || stats.PCIeRequests() == 0 {
		t.Fatal("the stream must both hit and miss")
	}
	if stats.ModeledTime() != perRow.ModeledTime() {
		t.Fatalf("modeled %v, per-row %v", stats.ModeledTime(), perRow.ModeledTime())
	}
}
