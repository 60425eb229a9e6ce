package serve

import "testing"

// partition is a bare Fleet carrying only what owner reads: K and the seed.
func partition(shards int, seed uint64) *Fleet {
	return &Fleet{cfg: Config{Seed: seed}, shards: make([]*Engine, shards)}
}

// TestPartitionBalance: the owned-key mass per shard stays balanced — max/min
// within 1.5× over a large sequential id space (sequential ids are the
// realistic worst case: datasets assign node ids densely from 0).
func TestPartitionBalance(t *testing.T) {
	const keys = 200_000
	for _, K := range []int{2, 4, 8} {
		f := partition(K, 42)
		counts := make([]int, K)
		for n := int32(0); n < keys; n++ {
			counts[f.owner(n)]++
		}
		mn, mx := counts[0], counts[0]
		for _, c := range counts {
			if c < mn {
				mn = c
			}
			if c > mx {
				mx = c
			}
		}
		if mn == 0 {
			t.Fatalf("K=%d: a shard owns no keys: %v", K, counts)
		}
		if ratio := float64(mx) / float64(mn); ratio > 1.5 {
			t.Fatalf("K=%d: load ratio %.3f > 1.5 (counts %v)", K, ratio, counts)
		}
	}
}

// TestPartitionSeedStable: the assignment is a pure function of (K, seed) —
// identical across constructions (what lets a restarted fleet reopen its
// per-shard stores) — and a different seed yields a different layout.
func TestPartitionSeedStable(t *testing.T) {
	a, b, c := partition(4, 123), partition(4, 123), partition(4, 124)
	differs := false
	for n := int32(0); n < 10_000; n++ {
		if a.owner(n) != b.owner(n) {
			t.Fatalf("same (K, seed) disagrees on node %d", n)
		}
		if a.owner(n) != c.owner(n) {
			differs = true
		}
	}
	if !differs {
		t.Fatal("different seeds produced an identical assignment over 10k keys")
	}
}

// TestPartitionK1: a one-shard fleet owns every node on shard 0.
func TestPartitionK1(t *testing.T) {
	f := partition(1, 9)
	for n := int32(0); n < 1000; n++ {
		if f.owner(n) != 0 {
			t.Fatal("K=1 partition must own everything on shard 0")
		}
	}
}
