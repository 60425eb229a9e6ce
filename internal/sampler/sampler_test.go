package sampler

import (
	"math"
	"runtime"
	"testing"
	"testing/quick"

	"taser/internal/device"
	"taser/internal/mathx"
	"taser/internal/tgraph"
)

// chainGraph builds a graph where node 0 interacts with node i at time i,
// for i in 1..n-1. Node 0's neighborhood at time t is {1..ceil(t)-1}.
func chainGraph(t *testing.T, n int) *tgraph.TCSR {
	t.Helper()
	events := make([]tgraph.Event, 0, n-1)
	for i := 1; i < n; i++ {
		events = append(events, tgraph.Event{Src: 0, Dst: int32(i), Time: float64(i)})
	}
	g, err := tgraph.NewGraph(n, events)
	if err != nil {
		t.Fatal(err)
	}
	return tgraph.BuildTCSR(g)
}

func randomTCSR(seed uint64, n, m int) *tgraph.TCSR {
	rng := mathx.NewRNG(seed)
	events := make([]tgraph.Event, m)
	for i := range events {
		events[i] = tgraph.Event{
			Src:  int32(rng.Intn(n)),
			Dst:  int32(rng.Intn(n)),
			Time: rng.Float64() * 100,
		}
	}
	g, _ := tgraph.NewGraph(n, events)
	return tgraph.BuildTCSR(g)
}

func allFinders(t *testing.T, tc tgraph.Adjacency) []Finder {
	t.Helper()
	rng := mathx.NewRNG(7)
	return []Finder{
		NewOriginFinder(tc, rng.Split()),
		NewTGLFinder(tc, rng.Split()),
		NewGPUFinder(tc, device.New(), 99),
	}
}

func TestResultResetPads(t *testing.T) {
	var r Result
	r.Reset(3, 4)
	if len(r.Nodes) != 12 || len(r.Counts) != 3 || r.Budget != 4 {
		t.Fatal("reset shape")
	}
	for _, v := range r.Nodes {
		if v != -1 {
			t.Fatal("padding must be -1")
		}
	}
	// Reuse with smaller shape keeps capacity.
	r.Nodes[0] = 5
	r.Reset(1, 2)
	if len(r.Nodes) != 2 || r.Nodes[0] != -1 {
		t.Fatal("reset must re-pad")
	}
}

func TestMostRecentOrdering(t *testing.T) {
	tc := chainGraph(t, 20)
	for _, f := range allFinders(t, tc) {
		var out Result
		err := f.Sample([]Target{{Node: 0, Time: 10.5}}, 5, MostRecent, &out)
		if err != nil {
			t.Fatalf("%s: %v", f.Name(), err)
		}
		// Neighborhood is nodes 1..10; most recent 5 are 10, 9, 8, 7, 6.
		want := []int32{10, 9, 8, 7, 6}
		for j, w := range want {
			if out.Nodes[out.Slot(0, j)] != w {
				t.Fatalf("%s: slot %d = %d want %d", f.Name(), j, out.Nodes[out.Slot(0, j)], w)
			}
		}
		if out.Counts[0] != 5 {
			t.Fatalf("%s: count %d", f.Name(), out.Counts[0])
		}
	}
}

func TestTemporalConstraintRespected(t *testing.T) {
	tc := randomTCSR(1, 30, 500)
	for _, f := range allFinders(t, tc) {
		var out Result
		targets := []Target{{Node: 3, Time: 50}, {Node: 7, Time: 60}, {Node: 3, Time: 70}}
		if err := f.Sample(targets, 8, Uniform, &out); err != nil {
			t.Fatalf("%s: %v", f.Name(), err)
		}
		for i, tgt := range targets {
			for j := 0; j < int(out.Counts[i]); j++ {
				s := out.Slot(i, j)
				if out.Times[s] >= tgt.Time {
					t.Fatalf("%s: sampled future neighbor t=%v for target t=%v",
						f.Name(), out.Times[s], tgt.Time)
				}
				if out.Nodes[s] < 0 {
					t.Fatalf("%s: padding inside counted region", f.Name())
				}
			}
			for j := int(out.Counts[i]); j < out.Budget; j++ {
				if out.Nodes[out.Slot(i, j)] != -1 {
					t.Fatalf("%s: non-padding outside counted region", f.Name())
				}
			}
		}
	}
}

func TestUniformNoReplacement(t *testing.T) {
	tc := chainGraph(t, 40)
	for _, f := range allFinders(t, tc) {
		for trial := 0; trial < 20; trial++ {
			var out Result
			if err := f.Sample([]Target{{Node: 0, Time: 35.5}}, 10, Uniform, &out); err != nil {
				t.Fatalf("%s: %v", f.Name(), err)
			}
			seen := map[int32]bool{}
			for j := 0; j < int(out.Counts[0]); j++ {
				v := out.Eids[out.Slot(0, j)]
				if seen[v] {
					t.Fatalf("%s: duplicate eid %d in uniform sample", f.Name(), v)
				}
				seen[v] = true
			}
		}
	}
}

func TestBudgetExceedsNeighborhood(t *testing.T) {
	tc := chainGraph(t, 5) // node 0 has ≤4 neighbors
	for _, f := range allFinders(t, tc) {
		for _, pol := range []Policy{Uniform, MostRecent} {
			var out Result
			if err := f.Sample([]Target{{Node: 0, Time: 100}}, 10, pol, &out); err != nil {
				t.Fatalf("%s: %v", f.Name(), err)
			}
			if out.Counts[0] != 4 {
				t.Fatalf("%s/%s: count %d want 4", f.Name(), pol, out.Counts[0])
			}
			got := map[int32]bool{}
			for j := 0; j < 4; j++ {
				got[out.Nodes[out.Slot(0, j)]] = true
			}
			for v := int32(1); v <= 4; v++ {
				if !got[v] {
					t.Fatalf("%s/%s: full neighborhood must be returned", f.Name(), pol)
				}
			}
		}
	}
}

func TestEmptyNeighborhood(t *testing.T) {
	tc := chainGraph(t, 5)
	for _, f := range allFinders(t, tc) {
		var out Result
		// Node 2 has a single event at time 2; at t=1 its neighborhood is empty.
		if err := f.Sample([]Target{{Node: 2, Time: 1}}, 3, Uniform, &out); err != nil {
			t.Fatalf("%s: %v", f.Name(), err)
		}
		if out.Counts[0] != 0 || out.Nodes[0] != -1 {
			t.Fatalf("%s: empty neighborhood handling", f.Name())
		}
	}
}

func TestUniformIsApproximatelyUniform(t *testing.T) {
	tc := chainGraph(t, 101) // neighborhood of node 0 at t=101 is 100 nodes
	rng := mathx.NewRNG(3)
	finders := []Finder{
		NewOriginFinder(tc, rng.Split()),
		NewGPUFinder(tc, device.New(), 5),
	}
	for _, f := range finders {
		counts := make([]int, 101)
		const trials = 4000
		var out Result
		for trial := 0; trial < trials; trial++ {
			if err := f.Sample([]Target{{Node: 0, Time: 1000}}, 5, Uniform, &out); err != nil {
				t.Fatal(err)
			}
			for j := 0; j < int(out.Counts[0]); j++ {
				counts[out.Nodes[out.Slot(0, j)]]++
			}
		}
		// Each of the 100 neighbors should appear ~trials·5/100 = 200 times.
		for v := 1; v <= 100; v++ {
			if math.Abs(float64(counts[v])-200) > 80 {
				t.Fatalf("%s: node %d sampled %d times, want ~200", f.Name(), v, counts[v])
			}
		}
	}
}

func TestTGLOutOfOrderStillCorrect(t *testing.T) {
	// The pointer array is built for chronological order; out-of-order
	// queries lose the O(1) amortization but must remain CORRECT via the
	// backward scan (this is how multi-hop targets are served).
	tc := chainGraph(t, 20)
	f := NewTGLFinder(tc, mathx.NewRNG(1))
	if f.ArbitraryOrder() {
		t.Fatal("TGL must advertise chronological-order preference")
	}
	var out Result
	if err := f.Sample([]Target{{Node: 0, Time: 10}}, 3, Uniform, &out); err != nil {
		t.Fatal(err)
	}
	// Now query an earlier time: only neighbors before t=5 may appear.
	if err := f.Sample([]Target{{Node: 0, Time: 5}}, 10, Uniform, &out); err != nil {
		t.Fatal(err)
	}
	if out.Counts[0] != 4 {
		t.Fatalf("backward query count %d want 4", out.Counts[0])
	}
	for j := 0; j < int(out.Counts[0]); j++ {
		if out.Times[out.Slot(0, j)] >= 5 {
			t.Fatal("backward query leaked future neighbors")
		}
	}
	f.Reset()
	if err := f.Sample([]Target{{Node: 0, Time: 5}}, 3, Uniform, &out); err != nil {
		t.Fatalf("after Reset: %v", err)
	}
}

func TestTGLSharedNodeInBatch(t *testing.T) {
	// Two targets on the same node with different times in one batch: the
	// earlier target must not see neighbors between its time and the later's.
	tc := chainGraph(t, 30)
	f := NewTGLFinder(tc, mathx.NewRNG(2))
	var out Result
	targets := []Target{{Node: 0, Time: 5.5}, {Node: 0, Time: 25.5}}
	if err := f.Sample(targets, 25, Uniform, &out); err != nil {
		t.Fatal(err)
	}
	if out.Counts[0] != 5 {
		t.Fatalf("earlier target count %d want 5", out.Counts[0])
	}
	if out.Counts[1] != 25 {
		t.Fatalf("later target count %d want 25", out.Counts[1])
	}
}

// scheduleTargets is the fixture of the schedule tests: 64 targets over
// randomTCSR(4, 50, 2000), late enough that most have neighbors to draw.
func scheduleTargets() (*tgraph.TCSR, []Target) {
	tc := randomTCSR(4, 50, 2000)
	targets := make([]Target, 64)
	rng := mathx.NewRNG(5)
	for i := range targets {
		targets[i] = Target{Node: int32(rng.Intn(50)), Time: 50 + rng.Float64()*50}
	}
	return tc, targets
}

// TestGPUFinderDeterministicAcrossSchedules holds the property that makes
// the block schedule immaterial: a block's draw depends only on (seed, call,
// block), not on the blocks that share its grid. Fresh finders with the same
// seed are given all 64 targets, the first 20 alone, and the 64 with the
// first 20 padded (blocks that draw nothing); every block they share returns
// the same row. The padded grid is what catches one stream shared across
// blocks: the prefix alone draws the same under any serial schedule.
func TestGPUFinderDeterministicAcrossSchedules(t *testing.T) {
	tc, targets := scheduleTargets()
	const budget, head = 7, 20
	sample := func(targets []Target) Result {
		var out Result
		if err := NewGPUFinder(tc, device.New(), 42).Sample(targets, budget, Uniform, &out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	all := sample(targets)
	padded := append([]Target(nil), targets...)
	for i := range padded[:head] {
		padded[i] = Padding
	}
	for _, c := range []struct {
		name   string
		got    Result
		lo, hi int // the blocks shared with the full grid
	}{
		{"first 20 alone", sample(targets[:head]), 0, head},
		{"first 20 padded", sample(padded), head, len(targets)},
	} {
		for i := c.lo * budget; i < c.hi*budget; i++ {
			if c.got.Nodes[i] != all.Nodes[i] || c.got.Eids[i] != all.Eids[i] {
				t.Fatalf("%s: slot %d (block %d) drew %d/%d, the full grid %d/%d",
					c.name, i, i/budget, c.got.Nodes[i], c.got.Eids[i], all.Nodes[i], all.Eids[i])
			}
		}
	}
}

// TestTGLFinderIndependentOfGOMAXPROCS: the TGL finder's draws are a function
// of its seed and its calls, not of the host's core count.
func TestTGLFinderIndependentOfGOMAXPROCS(t *testing.T) {
	tc, targets := scheduleTargets()
	sample := func(procs int) Result {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		var out Result
		if err := NewTGLFinder(tc, mathx.NewRNG(9)).Sample(targets, 7, Uniform, &out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	one, four := sample(1), sample(4)
	differ := 0
	for i := range one.Nodes {
		if one.Nodes[i] != four.Nodes[i] || one.Eids[i] != four.Eids[i] {
			differ++
		}
	}
	if differ > 0 {
		t.Fatalf("%d of %d slots differ between GOMAXPROCS 1 and 4", differ, len(one.Nodes))
	}
}

func TestGPUFinderArbitraryOrder(t *testing.T) {
	tc := chainGraph(t, 20)
	f := NewGPUFinder(tc, device.New(), 1)
	if !f.ArbitraryOrder() {
		t.Fatal("GPU finder must support arbitrary order")
	}
	var out Result
	// Descending times — the case TGL rejects.
	targets := []Target{{Node: 0, Time: 15}, {Node: 0, Time: 5}}
	if err := f.Sample(targets, 3, Uniform, &out); err != nil {
		t.Fatal(err)
	}
	if out.Counts[0] != 3 || out.Counts[1] != 3 {
		t.Fatalf("counts %v", out.Counts)
	}
}

func TestFindersAgreeOnNeighborhoodProperty(t *testing.T) {
	// Property: for MostRecent (deterministic) all three finders must return
	// exactly the same neighbors for identical chronological queries.
	err := quick.Check(func(seed uint64) bool {
		tc := randomTCSR(seed, 15, 300)
		rng := mathx.NewRNG(seed)
		targets := make([]Target, 10)
		for i := range targets {
			targets[i] = Target{Node: int32(rng.Intn(15)), Time: float64(i*10) + rng.Float64()}
		}
		origin := NewOriginFinder(tc, rng.Split())
		tgl := NewTGLFinder(tc, rng.Split())
		gpu := NewGPUFinder(tc, device.New(), seed)
		var a, b, c Result
		if origin.Sample(targets, 6, MostRecent, &a) != nil ||
			tgl.Sample(targets, 6, MostRecent, &b) != nil ||
			gpu.Sample(targets, 6, MostRecent, &c) != nil {
			return false
		}
		for i := range a.Nodes {
			if a.Nodes[i] != b.Nodes[i] || b.Nodes[i] != c.Nodes[i] {
				return false
			}
			if a.Eids[i] != b.Eids[i] || b.Eids[i] != c.Eids[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 25})
	if err != nil {
		t.Fatal(err)
	}
}

func TestInverseTimespanBiasesRecent(t *testing.T) {
	// With neighbors at times 1..100 and a query at t=101, 1/Δt sampling
	// must pick recent neighbors far more often than old ones.
	tc := chainGraph(t, 101)
	for _, f := range allFinders(t, tc) {
		recent, old := 0, 0
		var out Result
		for trial := 0; trial < 2000; trial++ {
			if err := f.Sample([]Target{{Node: 0, Time: 101}}, 5, InverseTimespan, &out); err != nil {
				t.Fatalf("%s: %v", f.Name(), err)
			}
			for j := 0; j < int(out.Counts[0]); j++ {
				node := out.Nodes[out.Slot(0, j)]
				if node > 80 {
					recent++
				}
				if node <= 20 {
					old++
				}
			}
		}
		if recent < 3*old {
			t.Fatalf("%s: inverse-timespan not recency-biased (recent=%d old=%d)",
				f.Name(), recent, old)
		}
	}
}

func TestInverseTimespanNoReplacement(t *testing.T) {
	tc := chainGraph(t, 30)
	f := NewGPUFinder(tc, device.New(), 3)
	var out Result
	for trial := 0; trial < 50; trial++ {
		if err := f.Sample([]Target{{Node: 0, Time: 25.5}}, 8, InverseTimespan, &out); err != nil {
			t.Fatal(err)
		}
		seen := map[int32]bool{}
		for j := 0; j < int(out.Counts[0]); j++ {
			id := out.Eids[out.Slot(0, j)]
			if seen[id] {
				t.Fatal("duplicate in inverse-timespan sample")
			}
			seen[id] = true
		}
	}
}

func TestInvalidBudget(t *testing.T) {
	tc := chainGraph(t, 5)
	for _, f := range allFinders(t, tc) {
		var out Result
		if err := f.Sample([]Target{{Node: 0, Time: 3}}, 0, Uniform, &out); err == nil {
			t.Fatalf("%s: zero budget must error", f.Name())
		}
	}
}

func TestPolicyString(t *testing.T) {
	if Uniform.String() != "uniform" || MostRecent.String() != "recent" {
		t.Fatal("policy names")
	}
	if Policy(9).String() == "" {
		t.Fatal("unknown policy must still format")
	}
}

// TestFindersObliviousToAdjacencyLayout: every finder must return
// bitwise-identical samples over the flat batch-built TCSR and over the
// chunked AppendableTCSR a Builder publishes incrementally for the same
// event stream — the reader-side contract of incremental snapshots.
func TestFindersObliviousToAdjacencyLayout(t *testing.T) {
	const n, m = 40, 800
	flat := randomTCSR(21, n, m)
	// Rebuild the identical stream through the streaming path, snapshotting
	// twice mid-stream so the final layout genuinely shares frozen chunks.
	rng := mathx.NewRNG(21)
	events := make([]tgraph.Event, m)
	for i := range events {
		events[i] = tgraph.Event{
			Src:  int32(rng.Intn(n)),
			Dst:  int32(rng.Intn(n)),
			Time: rng.Float64() * 100,
		}
	}
	g, err := tgraph.NewGraph(n, events)
	if err != nil {
		t.Fatal(err)
	}
	b := tgraph.NewBuilder(n)
	var chunked *tgraph.AppendableTCSR
	for i, ev := range g.Events {
		if err := b.Add(ev.Src, ev.Dst, ev.Time); err != nil {
			t.Fatal(err)
		}
		if i == m/3 || i == 2*m/3 {
			_, chunked = b.Snapshot()
		}
	}
	_, chunked = b.Snapshot()

	targets := []Target{{Node: 0, Time: 90}, {Node: 7, Time: 55}, {Node: 33, Time: 10}, {Node: 12, Time: 101}}
	for _, policy := range []Policy{MostRecent, Uniform, InverseTimespan} {
		flatFinders := allFinders(t, flat)
		chunkFinders := allFinders(t, chunked)
		for k := range flatFinders {
			var fo, co Result
			if err := flatFinders[k].Sample(targets, 6, policy, &fo); err != nil {
				t.Fatal(err)
			}
			if err := chunkFinders[k].Sample(targets, 6, policy, &co); err != nil {
				t.Fatal(err)
			}
			for s := range fo.Nodes {
				if fo.Nodes[s] != co.Nodes[s] || fo.Times[s] != co.Times[s] || fo.Eids[s] != co.Eids[s] {
					t.Fatalf("%s/%v slot %d: flat (%d,%v,%d) vs chunked (%d,%v,%d)",
						flatFinders[k].Name(), policy, s,
						fo.Nodes[s], fo.Times[s], fo.Eids[s],
						co.Nodes[s], co.Times[s], co.Eids[s])
				}
			}
			for i := range fo.Counts {
				if fo.Counts[i] != co.Counts[i] {
					t.Fatalf("%s/%v count %d differs", flatFinders[k].Name(), policy, i)
				}
			}
		}
	}
}
