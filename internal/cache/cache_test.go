package cache

import (
	"testing"
	"testing/quick"

	"taser/internal/mathx"
)

func TestTopK(t *testing.T) {
	counts := []int64{5, 0, 9, 9, 1}
	got := topK(counts, 3)
	// 9s first (lower id wins ties), then 5.
	want := []int32{2, 3, 0}
	for i, w := range want {
		if got[i] != w {
			t.Fatalf("topK = %v", got)
		}
	}
	// Zero-count rows never enter the top-k.
	if len(topK([]int64{0, 0, 1}, 3)) != 1 {
		t.Fatal("topK must skip zero counts")
	}
}

func TestFrequencyColdStartThenWarm(t *testing.T) {
	f := NewFrequency(10, 3, 0.8)
	// Epoch 1: rows 1, 2, 3 hot. All misses (cache is cold).
	for i := 0; i < 5; i++ {
		for _, id := range []int32{1, 2, 3} {
			if _, hit := f.Access(id); hit {
				t.Fatal("cold cache cannot hit")
			}
		}
	}
	if f.HitRate() != 0 {
		t.Fatal("cold epoch hit rate must be 0")
	}
	inserted := f.EndEpoch()
	if len(inserted) != 3 {
		t.Fatalf("first EndEpoch must fill the cache, inserted %v", inserted)
	}
	f.ResetStats()
	// Epoch 2: same pattern → all hits.
	for _, id := range []int32{1, 2, 3} {
		if _, hit := f.Access(id); !hit {
			t.Fatalf("row %d should be resident", id)
		}
	}
	if f.HitRate() != 1 {
		t.Fatalf("warm hit rate %v", f.HitRate())
	}
}

func TestFrequencySwapOnlyBelowThreshold(t *testing.T) {
	f := NewFrequency(10, 2, 0.5) // swap when overlap < 1 of 2
	f.Access(1)
	f.Access(2)
	f.EndEpoch() // cache = {1, 2}
	// Epoch 2: rows 1 and 5 hot → overlap 1 ≥ ε·k = 1 → NO swap.
	f.Access(1)
	f.Access(5)
	if ins := f.EndEpoch(); ins != nil {
		t.Fatalf("overlap at threshold must not swap, inserted %v", ins)
	}
	// Epoch 3: rows 7, 8 hot → overlap 0 < 1 → swap.
	f.Access(7)
	f.Access(8)
	ins := f.EndEpoch()
	if len(ins) != 2 {
		t.Fatalf("swap expected, inserted %v", ins)
	}
	if _, hit := f.Lookup(7); !hit {
		t.Fatal("7 must be resident after swap")
	}
	if _, hit := f.Lookup(1); hit {
		t.Fatal("1 must be evicted")
	}
}

func TestFrequencySlotsAreStableAndDisjoint(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		rng := mathx.NewRNG(seed)
		f := NewFrequency(50, 8, 0.6)
		for epoch := 0; epoch < 5; epoch++ {
			for i := 0; i < 200; i++ {
				f.Access(int32(rng.Intn(50)))
			}
			f.EndEpoch()
			// Invariant: resident slots are unique and within capacity.
			seen := map[int]bool{}
			for id := int32(0); id < 50; id++ {
				if slot, ok := f.Lookup(id); ok {
					if slot < 0 || slot >= 8 || seen[slot] {
						return false
					}
					seen[slot] = true
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 30})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFrequencyDecayModes: counts clear at every epoch boundary (Algorithm 3),
// so only the last epoch's accesses decide the swap.
func TestFrequencyDecayModes(t *testing.T) {
	f := NewFrequency(4, 1, 1.0)
	for i := 0; i < 100; i++ {
		f.Access(0)
	}
	f.EndEpoch() // cache = {0}
	f.Access(1)
	f.Access(1)
	ins := f.EndEpoch()
	if len(ins) != 1 || ins[0] != 1 {
		t.Fatalf("the new epoch winner must replace: %v", ins)
	}
}

func TestFrequencyZeroCapacity(t *testing.T) {
	f := NewFrequency(5, 0, 0.5)
	if _, hit := f.Access(1); hit {
		t.Fatal("zero-capacity cache cannot hit")
	}
	if f.EndEpoch() != nil {
		t.Fatal("zero-capacity cache cannot insert")
	}
}

func TestFrequencyPanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewFrequency(5, 6, 0.5)
}

func TestOracleKnowsFuture(t *testing.T) {
	o := NewOracle(2)
	future := make([]int64, 10)
	future[3] = 100
	future[7] = 50
	ins := o.Reveal(future)
	if len(ins) != 2 {
		t.Fatalf("inserted %v", ins)
	}
	for _, id := range []int32{3, 7} {
		if _, hit := o.Access(id); !hit {
			t.Fatalf("oracle must hit on predicted row %d", id)
		}
	}
	if _, hit := o.Access(1); hit {
		t.Fatal("unpredicted row must miss")
	}
	if o.HitRate() != 2.0/3 {
		t.Fatalf("hit rate %v", o.HitRate())
	}
}

func TestOracleRevealKeepsOverlap(t *testing.T) {
	o := NewOracle(2)
	f1 := []int64{9, 8, 0, 0}
	o.Reveal(f1) // cache {0, 1}
	f2 := []int64{9, 0, 7, 0}
	ins := o.Reveal(f2) // keep 0, swap 1→2
	if len(ins) != 1 || ins[0] != 2 {
		t.Fatalf("incremental reveal inserted %v", ins)
	}
	if _, ok := o.Lookup(0); !ok {
		t.Fatal("overlapping row must remain resident")
	}
}

func TestOracleBeatsFrequencyOnShiftingPattern(t *testing.T) {
	// When the hot set shifts every epoch, the oracle (which sees the future)
	// must achieve a hit rate at least as high as the historical policy.
	rng := mathx.NewRNG(9)
	const rows, cap = 100, 10
	freq := NewFrequency(rows, cap, 0.7)
	oracle := NewOracle(cap)
	var freqHits, oracleHits float64
	for epoch := 0; epoch < 10; epoch++ {
		hotBase := epoch * 7 % rows
		counts := make([]int64, rows)
		var accesses []int32
		for i := 0; i < 500; i++ {
			var id int32
			if rng.Float64() < 0.8 {
				id = int32((hotBase + rng.Intn(cap)) % rows)
			} else {
				id = int32(rng.Intn(rows))
			}
			accesses = append(accesses, id)
			counts[id]++
		}
		oracle.Reveal(counts)
		for _, id := range accesses {
			freq.Access(id)
			oracle.Access(id)
		}
		freq.EndEpoch()
	}
	freqHits = freq.HitRate()
	oracleHits = oracle.HitRate()
	if oracleHits < freqHits {
		t.Fatalf("oracle (%v) must dominate frequency (%v)", oracleHits, freqHits)
	}
	if oracleHits < 0.5 {
		t.Fatalf("oracle hit rate %v implausibly low", oracleHits)
	}
}

func TestFrequencyNearOracleOnStablePattern(t *testing.T) {
	// Fig. 3(b)'s claim: with a stable access pattern the historical policy
	// approaches the oracle. Skewed static distribution, several epochs.
	rng := mathx.NewRNG(10)
	const rows, cap = 200, 40
	weights := make([]float64, rows)
	for i := range weights {
		weights[i] = 1.0 / float64(i+1) // zipf-ish
	}
	alias := mathx.NewAlias(weights)
	freq := NewFrequency(rows, cap, 0.7)
	oracle := NewOracle(cap)
	var freqRate, oracleRate float64
	for epoch := 0; epoch < 6; epoch++ {
		counts := make([]int64, rows)
		var accesses []int32
		for i := 0; i < 3000; i++ {
			id := int32(alias.Draw(rng))
			accesses = append(accesses, id)
			counts[id]++
		}
		oracle.Reveal(counts)
		freq.ResetStats()
		oracle.ResetStats()
		for _, id := range accesses {
			freq.Access(id)
			oracle.Access(id)
		}
		freq.EndEpoch()
		freqRate = freq.HitRate()
		oracleRate = oracle.HitRate()
	}
	if oracleRate-freqRate > 0.05 {
		t.Fatalf("frequency policy (%v) should be within 5%% of oracle (%v) on stable patterns",
			freqRate, oracleRate)
	}
}

func TestLRUBasics(t *testing.T) {
	l := NewLRU(2)
	if _, hit := l.Access(1); hit {
		t.Fatal("first access must miss")
	}
	if _, hit := l.Access(1); !hit {
		t.Fatal("second access must hit")
	}
	l.Access(2)
	l.Access(3) // evicts 1 (LRU)
	if _, ok := l.Lookup(1); ok {
		t.Fatal("1 must be evicted")
	}
	if _, ok := l.Lookup(2); !ok {
		t.Fatal("2 must remain")
	}
	if l.Len() != 2 {
		t.Fatal("len")
	}
}

func TestLRURecencyOrder(t *testing.T) {
	l := NewLRU(2)
	l.Access(1)
	l.Access(2)
	l.Access(1) // 1 becomes most recent
	l.Access(3) // evicts 2
	if _, ok := l.Lookup(2); ok {
		t.Fatal("2 must be evicted (1 was touched)")
	}
	if _, ok := l.Lookup(1); !ok {
		t.Fatal("1 must remain")
	}
}

func TestLRUSlotReuse(t *testing.T) {
	l := NewLRU(2)
	s1, _ := l.Access(1)
	s2, _ := l.Access(2)
	if s1 == s2 {
		t.Fatal("distinct rows need distinct slots")
	}
	l.Access(3) // evicts 1, reusing its slot
	s3, _ := l.Lookup(3)
	if s3 != s1 {
		t.Fatal("evicted slot must be reused")
	}
}

func TestLRUZeroCapacity(t *testing.T) {
	l := NewLRU(0)
	if _, hit := l.Access(1); hit {
		t.Fatal("zero-capacity LRU cannot hit")
	}
	if l.Len() != 0 {
		t.Fatal("zero-capacity LRU must stay empty")
	}
}

func TestLRUPropertyNeverExceedsCapacity(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		rng := mathx.NewRNG(seed)
		cap := 1 + int(seed%8)
		l := NewLRU(cap)
		for i := 0; i < 500; i++ {
			l.Access(int32(rng.Intn(30)))
		}
		return l.Len() <= cap
	}, &quick.Config{MaxCount: 30})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFrequencyBeatsLRUOnScans(t *testing.T) {
	// A frequency policy resists one-off scan pollution; LRU does not.
	// Hot set of `cap` rows, plus a full scan of all rows each epoch.
	rng := mathx.NewRNG(11)
	const rows, cap = 300, 20
	freq := NewFrequency(rows, cap, 0.7)
	lru := NewLRU(cap)
	for epoch := 0; epoch < 5; epoch++ {
		if epoch == 1 { // measure after one warm-up epoch
			freq.ResetStats()
			lru.ResetStats()
		}
		for i := 0; i < 2000; i++ {
			id := int32(rng.Intn(cap)) // hot rows = 0..cap-1
			freq.Access(id)
			lru.Access(id)
			if i%4 == 0 { // interleaved scan traffic
				scan := int32((epoch*2000 + i) % rows)
				freq.Access(scan)
				lru.Access(scan)
			}
		}
		freq.EndEpoch()
	}
	if freq.HitRate() <= lru.HitRate() {
		t.Fatalf("frequency (%v) should beat LRU (%v) under scan pollution",
			freq.HitRate(), lru.HitRate())
	}
}

func TestHitRateEmpty(t *testing.T) {
	if NewLRU(2).HitRate() != 0 {
		t.Fatal("empty hit rate must be 0")
	}
}
