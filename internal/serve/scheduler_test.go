package serve

import (
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"taser/internal/datasets"
)

// burstPredicts runs `callers` closed-loop goroutines, each issuing `reqs`
// predicts back to back at query time qt, and returns every caller's scores
// and per-request latencies. pair(c, i) names request i of caller c.
func burstPredicts(t *testing.T, e *Engine, callers, reqs int, qt float64, pair func(c, i int) (src, dst int32)) (scores [][]float64, lats [][]time.Duration) {
	t.Helper()
	scores = make([][]float64, callers)
	lats = make([][]time.Duration, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < reqs; i++ {
				src, dst := pair(c, i)
				start := time.Now()
				res, err := e.PredictLink(src, dst, qt)
				if err != nil {
					t.Errorf("caller %d request %d: %v", c, i, err)
					return
				}
				scores[c] = append(scores[c], res.Score)
				lats[c] = append(lats[c], time.Since(start))
			}
		}(c)
	}
	wg.Wait()
	for c := range scores {
		if len(scores[c]) != reqs {
			t.Fatalf("caller %d completed %d of %d requests", c, len(scores[c]), reqs)
		}
	}
	return scores, lats
}

// spreadPairs names request i of caller c so that callers rarely share a root.
func spreadPairs(n int) func(c, i int) (src, dst int32) {
	return func(c, i int) (int32, int32) {
		return int32((c*131 + i*17) % n), int32((c*37 + i*101 + 1) % n)
	}
}

// TestLoneRequestDoesNotWaitMaxWait: with nobody else submitting, a request
// is flushed as soon as one yield finds the channel empty — MaxWait is an
// upper bound on the gather, not a wait every request pays.
func TestLoneRequestDoesNotWaitMaxWait(t *testing.T) {
	const maxWait = 2 * time.Second
	ds := datasets.Wikipedia(0.02, 41)
	e, _ := newTestEngine(t, ds, func(c *Config) { c.MaxWait = maxWait })
	qt := e.Pin().Watermark + 1

	start := time.Now()
	if _, err := e.Embed(3, qt); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > maxWait/4 {
		t.Fatalf("lone Embed took %v with MaxWait %v: the scheduler waited for company", d, maxWait)
	}
	start = time.Now()
	if _, err := e.PredictLink(3, 4, qt); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > maxWait/4 {
		t.Fatalf("lone PredictLink took %v with MaxWait %v: the scheduler waited for company", d, maxWait)
	}
}

// TestGatherFillsBatchesOnOneProc: on one processor the scheduler is woken by
// the first of sixteen runnable callers and finds the channel empty; only
// the yield lets the other fifteen reach their send. Without it every batch
// holds one request (2.00 roots instead of ~32).
func TestGatherFillsBatchesOnOneProc(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ds := datasets.Wikipedia(0.02, 43)
	e, _ := newTestEngine(t, ds, func(c *Config) { c.MaxBatch = 32 }) // cache off: every root is built
	qt := e.Pin().Watermark + 1
	n := ds.Spec.NumNodes

	const callers, reqs = 16, 200
	burstPredicts(t, e, callers, reqs, qt, spreadPairs(n))
	st := e.Stats()
	if st.Requests != callers*reqs {
		t.Fatalf("requests = %d, want %d", st.Requests, callers*reqs)
	}
	if st.AvgBatch < 24 {
		t.Fatalf("avg batch %.2f roots over %d batches, want >= 24: the gather is not finding the runnable callers",
			st.AvgBatch, st.Batches)
	}
	t.Logf("%d batches of %.2f roots", st.Batches, st.AvgBatch)
}

// TestScoreIndependentOfBatchComposition: the score of one fixed pair served
// alone is bitwise the score of the same pair served inside a 16-caller burst
// on the same snapshot and weights — the property that lets batch sizes
// change without moving any prediction.
func TestScoreIndependentOfBatchComposition(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ds := datasets.Wikipedia(0.02, 47)
	e, _ := newTestEngine(t, ds, func(c *Config) { c.MaxBatch = 32 })
	qt := e.Pin().Watermark + 1
	n := ds.Spec.NumNodes
	ev := ds.Graph.Events[len(ds.Graph.Events)-1]

	alone, err := e.PredictLink(ev.Src, ev.Dst, qt)
	if err != nil {
		t.Fatal(err)
	}
	before := e.Stats()

	const callers, reqs = 16, 50
	scores, _ := burstPredicts(t, e, callers, reqs, qt, func(c, i int) (int32, int32) {
		if c == 0 {
			return ev.Src, ev.Dst
		}
		return spreadPairs(n)(c, i)
	})
	for i, s := range scores[0] {
		if s != alone.Score {
			t.Fatalf("request %d inside the burst scored %v, alone %v", i, s, alone.Score)
		}
	}
	st := e.Stats()
	if avg := float64(st.Roots-before.Roots) / float64(st.Batches-before.Batches); avg < 8 {
		t.Fatalf("burst averaged %.2f roots a batch: the fixed pair was never served in company", avg)
	}
}

// TestGatherEndsUnderResubmission: callers that resubmit the moment they are
// answered keep every yield productive, so the gather must end on MaxBatch
// (and, failing that, on MaxWait) rather than run on. With more callers than a
// batch holds, every request is answered far inside MaxWait, and none waits
// longer than MaxWait plus the flushes it shares the engine with.
func TestGatherEndsUnderResubmission(t *testing.T) {
	const (
		maxWait = 200 * time.Millisecond
		// Two flushes — the one running when a request arrived and its own —
		// at 250 ms each: orders above a 4-root flush (~100 µs), so the four
		// batches a request can queue behind, -race and a busy host all fit.
		flushAllowance = 2 * 250 * time.Millisecond
	)
	ds := datasets.Wikipedia(0.02, 53)
	e, _ := newTestEngine(t, ds, func(c *Config) { c.MaxBatch, c.MaxWait = 4, maxWait })
	qt := e.Pin().Watermark + 1
	n := ds.Spec.NumNodes

	const callers, reqs = 8, 100 // two predicts fill a 4-root batch; six callers stay parked
	_, lats := burstPredicts(t, e, callers, reqs, qt, spreadPairs(n))
	all := slices.Concat(lats...)
	slices.Sort(all)
	if med := all[len(all)/2]; med > maxWait/4 {
		t.Fatalf("median latency %v with MaxWait %v: gathers are ending on the clock, not on MaxBatch", med, maxWait)
	}
	if worst := all[len(all)-1]; worst > maxWait+flushAllowance {
		t.Fatalf("slowest request took %v, bound is MaxWait %v + %v", worst, maxWait, flushAllowance)
	}
	if st := e.Stats(); st.AvgBatch > 4 {
		t.Fatalf("avg batch %.2f roots exceeds MaxBatch 4", st.AvgBatch)
	}
}
