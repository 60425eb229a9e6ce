package tgraph

import (
	"testing"
	"testing/quick"

	"taser/internal/mathx"
)

func smallGraph(t *testing.T) *Graph {
	t.Helper()
	events := []Event{
		{0, 1, 1.0},
		{0, 2, 2.0},
		{1, 2, 3.0},
		{0, 1, 4.0}, // repeated pair at a later time
		{2, 2, 5.0}, // self loop
	}
	g, err := NewGraph(3, events)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// pivots returns |N(v, tm)| in a by binary search and by linear scan.
func pivots(a Adjacency, v int32, tm float64) (search, scan int) {
	_, ts, _ := a.Adj(v)
	return Pivot(ts, tm), PivotLinear(ts, tm)
}

// neighborhood returns N(v, tm) in a as views of v's adjacency.
func neighborhood(a Adjacency, v int32, tm float64) (nbr []int32, ts []float64, eid []int32) {
	nbr, ts, eid = a.Adj(v)
	p := Pivot(ts, tm)
	return nbr[:p], ts[:p], eid[:p]
}

func TestNewGraphValidates(t *testing.T) {
	if _, err := NewGraph(2, []Event{{0, 5, 1}}); err == nil {
		t.Fatal("out-of-range endpoint must error")
	}
	if _, err := NewGraph(2, []Event{{-1, 0, 1}}); err == nil {
		t.Fatal("negative endpoint must error")
	}
}

func TestNewGraphSortsByTime(t *testing.T) {
	g, err := NewGraph(3, []Event{{0, 1, 5}, {1, 2, 1}, {0, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(g.Events); i++ {
		if g.Events[i].Time < g.Events[i-1].Time {
			t.Fatal("events must be sorted")
		}
	}
}

func TestTCSRDegreesAndSymmetry(t *testing.T) {
	g := smallGraph(t)
	tc := BuildTCSR(g)
	// Node 0: events (0,1), (0,2), (0,1) → degree 3.
	if tc.Degree(0) != 3 {
		t.Fatalf("deg(0)=%d", tc.Degree(0))
	}
	// Node 1: (0,1), (1,2), (0,1) → 3.
	if tc.Degree(1) != 3 {
		t.Fatalf("deg(1)=%d", tc.Degree(1))
	}
	// Node 2: (0,2), (1,2), (2,2 self once) → 3.
	if tc.Degree(2) != 3 {
		t.Fatalf("deg(2)=%d", tc.Degree(2))
	}
	if tc.NumNodes() != 3 {
		t.Fatal("NumNodes")
	}
}

func TestTCSRTimesSortedPerNode(t *testing.T) {
	g := smallGraph(t)
	tc := BuildTCSR(g)
	for v := int32(0); v < 3; v++ {
		_, ts, _ := tc.Adj(v)
		for i := 1; i < len(ts); i++ {
			if ts[i] < ts[i-1] {
				t.Fatalf("node %d timestamps unsorted: %v", v, ts)
			}
		}
	}
}

func TestPivotMatchesLinear(t *testing.T) {
	g := smallGraph(t)
	tc := BuildTCSR(g)
	for v := int32(0); v < 3; v++ {
		for _, tm := range []float64{0, 0.5, 1.0, 2.5, 4.0, 99} {
			if search, scan := pivots(tc, v, tm); search != scan {
				t.Fatalf("pivot mismatch node %d t=%v", v, tm)
			}
		}
	}
}

func TestPivotStrictness(t *testing.T) {
	// N(v, t) uses t_u < t strictly: an event AT time t is excluded.
	g := smallGraph(t)
	tc := BuildTCSR(g)
	if p, _ := pivots(tc, 0, 1.0); p != 0 {
		t.Fatalf("event at exactly t must be excluded, pivot=%d", p)
	}
	if p, _ := pivots(tc, 0, 1.0001); p != 1 {
		t.Fatalf("pivot=%d", p)
	}
}

func TestNeighborhoodContents(t *testing.T) {
	g := smallGraph(t)
	tc := BuildTCSR(g)
	nbr, ts, eid := neighborhood(tc, 0, 3.5)
	if len(nbr) != 2 || nbr[0] != 1 || nbr[1] != 2 {
		t.Fatalf("nbr=%v", nbr)
	}
	if ts[0] != 1.0 || ts[1] != 2.0 {
		t.Fatalf("ts=%v", ts)
	}
	if eid[0] != 0 || eid[1] != 1 {
		t.Fatalf("eid=%v", eid)
	}
}

func TestEidMapsBackToEvent(t *testing.T) {
	g := smallGraph(t)
	tc := BuildTCSR(g)
	for v := int32(0); v < 3; v++ {
		nbr, ts, eid := tc.Adj(v)
		for i := range nbr {
			e := g.Events[eid[i]]
			if e.Time != ts[i] {
				t.Fatal("eid timestamp mismatch")
			}
			if e.Src != v && e.Dst != v {
				t.Fatal("eid must reference an event incident to v")
			}
			other := e.Src
			if e.Src == v {
				other = e.Dst
			}
			if other != nbr[i] && !(e.Src == e.Dst && nbr[i] == v) {
				t.Fatal("eid neighbor mismatch")
			}
		}
	}
}

func TestSelfLoopSingleEntry(t *testing.T) {
	g, _ := NewGraph(1, []Event{{0, 0, 1}})
	tc := BuildTCSR(g)
	if tc.Degree(0) != 1 {
		t.Fatalf("self loop must contribute one entry, got %d", tc.Degree(0))
	}
}

// randomGraph builds a random CTDG for property tests.
func randomGraph(seed uint64) *Graph {
	rng := mathx.NewRNG(seed)
	n := 2 + rng.Intn(20)
	m := rng.Intn(200)
	events := make([]Event, m)
	for i := range events {
		events[i] = Event{
			Src:  int32(rng.Intn(n)),
			Dst:  int32(rng.Intn(n)),
			Time: rng.Float64() * 100,
		}
	}
	g, _ := NewGraph(n, events)
	return g
}

func TestTCSRInvariantsProperty(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		g := randomGraph(seed)
		tc := BuildTCSR(g)
		// Invariant 1: total entries = 2·|E| − selfloops.
		self := 0
		for _, e := range g.Events {
			if e.Src == e.Dst {
				self++
			}
		}
		if len(tc.Nbr) != 2*len(g.Events)-self {
			return false
		}
		// Invariant 2: per-node times sorted; binary pivot == linear pivot.
		for v := int32(0); int(v) < g.NumNodes; v++ {
			_, ts, _ := tc.Adj(v)
			for i := 1; i < len(ts); i++ {
				if ts[i] < ts[i-1] {
					return false
				}
			}
			for trial := 0; trial < 5; trial++ {
				tm := float64(trial) * 25
				if search, scan := pivots(tc, v, tm); search != scan {
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 30})
	if err != nil {
		t.Fatal(err)
	}
}

func TestEmptyGraph(t *testing.T) {
	g, err := NewGraph(5, nil)
	if err != nil {
		t.Fatal(err)
	}
	tc := BuildTCSR(g)
	if tc.Degree(3) != 0 || len(tc.Nbr) != 0 {
		t.Fatal("empty graph")
	}
	if p, _ := pivots(tc, 0, 100); p != 0 {
		t.Fatal("pivot on empty adjacency")
	}
}
