package tgraph

import (
	"math"
	"testing"

	"taser/internal/mathx"
)

// live returns N(v, tm) as views of the builder's growing adjacency.
func live(b *Builder, v int32, tm float64) (nbr []int32, ts []float64, eid []int32) {
	p := Pivot(b.ts[v], tm)
	return b.nbr[v][:p], b.ts[v][:p], b.eid[v][:p]
}

func TestBuilderBasicFlow(t *testing.T) {
	b := NewBuilder(4)
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(b.Add(0, 1, 1))
	must(b.Add(1, 2, 2))
	must(b.Add(0, 1, 3))
	if b.NumEvents() != 3 {
		t.Fatal("NumEvents")
	}
	nbr, ts, eid := live(b, 1, 2.5)
	if len(nbr) != 2 || nbr[0] != 0 || nbr[1] != 2 {
		t.Fatalf("live neighborhood: %v", nbr)
	}
	if ts[1] != 2 || eid[1] != 1 {
		t.Fatal("live neighborhood metadata")
	}
}

func TestBuilderLastTimeTracksWatermark(t *testing.T) {
	b := NewBuilder(3)
	if _, ok := b.LastTime(); ok {
		t.Fatal("empty builder must report no watermark")
	}
	if err := b.Add(0, 1, 2.5); err != nil {
		t.Fatal(err)
	}
	if wm, ok := b.LastTime(); !ok || wm != 2.5 {
		t.Fatalf("watermark = %v (ok=%v), want 2.5", wm, ok)
	}
	// A rejected (stale) event must not move the watermark.
	if err := b.Add(1, 2, 1.0); err == nil {
		t.Fatal("stale event must error")
	}
	if wm, ok := b.LastTime(); !ok || wm != 2.5 {
		t.Fatalf("watermark moved on rejected event: %v (ok=%v)", wm, ok)
	}
	// Simultaneous events keep it in place; later events advance it.
	if err := b.Add(1, 2, 2.5); err != nil {
		t.Fatal(err)
	}
	if err := b.Add(2, 0, 4); err != nil {
		t.Fatal(err)
	}
	if wm, _ := b.LastTime(); wm != 4 {
		t.Fatalf("watermark = %v, want 4", wm)
	}
}

// TestBuilderNegativeStartStream is the watermark-initialization regression:
// a chronological stream whose first event is before t=0 must be admitted
// (the zero-valued lastT used to reject it), and chronology must still be
// enforced afterwards.
func TestBuilderNegativeStartStream(t *testing.T) {
	b := NewBuilder(3)
	if err := b.Add(0, 1, -5); err != nil {
		t.Fatalf("first event at t=-5 must be admitted: %v", err)
	}
	if wm, ok := b.LastTime(); !ok || wm != -5 {
		t.Fatalf("watermark = %v (ok=%v), want -5", wm, ok)
	}
	if err := b.Add(1, 2, -6); err == nil {
		t.Fatal("regression behind a negative watermark must error")
	}
	if err := b.Add(1, 2, -5); err != nil {
		t.Fatalf("equal negative timestamp must be admitted: %v", err)
	}
	if err := b.Add(2, 0, 0); err != nil {
		t.Fatalf("advance to t=0 must be admitted: %v", err)
	}
	if wm, ok := b.LastTime(); !ok || wm != 0 {
		t.Fatalf("a real t=0 watermark must be reported: %v (ok=%v)", wm, ok)
	}
}

// TestBuilderEqualTimestampStream: a stream of identical timestamps (t=0
// included) is chronological and must be fully admitted, in input order.
func TestBuilderEqualTimestampStream(t *testing.T) {
	b := NewBuilder(4)
	for i := 0; i < 6; i++ {
		if err := b.Add(int32(i%3), int32((i+1)%3), 0); err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
	}
	g, tc := b.Snapshot()
	for i, ev := range g.Events {
		if ev.Time != 0 {
			t.Fatalf("event %d time %v", i, ev.Time)
		}
	}
	_, _, eid := tc.Adj(0)
	for i := 1; i < len(eid); i++ {
		if eid[i] < eid[i-1] {
			t.Fatalf("equal-timestamp entries must keep input order: %v", eid)
		}
	}
}

func TestBuilderRejectsBadInput(t *testing.T) {
	b := NewBuilder(2)
	if err := b.Add(0, 5, 1); err == nil {
		t.Fatal("out-of-range endpoint must error")
	}
	// Non-finite timestamps: NaN would pass the chronology check (NaN < t is
	// false) and ±Inf would collide with "no events" sentinels downstream.
	if err := b.Add(0, 1, math.NaN()); err == nil {
		t.Fatal("NaN timestamp must error")
	}
	if err := b.Add(0, 1, math.Inf(-1)); err == nil {
		t.Fatal("-Inf timestamp must error")
	}
	if err := b.Add(0, 1, math.Inf(1)); err == nil {
		t.Fatal("+Inf timestamp must error")
	}
	if err := b.Add(0, 1, 5); err != nil {
		t.Fatal(err)
	}
	if err := b.Add(0, 1, 4); err == nil {
		t.Fatal("time regression must error")
	}
	// Equal timestamps are allowed (simultaneous events).
	if err := b.Add(1, 0, 5); err != nil {
		t.Fatal(err)
	}
}

// requireAdjEqual asserts that two packed layouts expose bitwise-identical
// adjacency for every node.
func requireAdjEqual(t *testing.T, got, want Adjacency) {
	t.Helper()
	if d := AdjacencyDiff(got, want); d != "" {
		t.Fatal(d)
	}
}

func TestBuilderSnapshotMatchesBatchBuild(t *testing.T) {
	rng := mathx.NewRNG(5)
	b := NewBuilder(20)
	var events []Event
	tm := 0.0
	for i := 0; i < 500; i++ {
		tm += rng.Float64()
		e := Event{Src: int32(rng.Intn(20)), Dst: int32(rng.Intn(20)), Time: tm}
		events = append(events, e)
		if err := b.Add(e.Src, e.Dst, e.Time); err != nil {
			t.Fatal(err)
		}
	}
	_, streamed := b.Snapshot()
	g, err := NewGraph(20, append([]Event(nil), events...))
	if err != nil {
		t.Fatal(err)
	}
	requireAdjEqual(t, streamed, BuildTCSR(g)) // every node's degree included
}

// TestIncrementalSnapshotMatchesFullRepack is the tentpole equivalence test:
// snapshots taken mid-stream (sharing chunks with their predecessors) must be
// bitwise-identical to a from-scratch NewGraph/BuildTCSR repack of the same
// prefix — and earlier snapshots must stay intact while ingest continues,
// including across chunk boundaries (numNodes > one chunk).
func TestIncrementalSnapshotMatchesFullRepack(t *testing.T) {
	const numNodes = adjChunkSize*2 + 37 // three chunks, last one partial
	rng := mathx.NewRNG(11)
	b := NewBuilder(numNodes)
	var events []Event
	type taken struct {
		at   int
		tc   *AppendableTCSR
		g    *Graph
		want *TCSR
	}
	var snaps []taken
	tm := -3.0 // negative-start stream exercises the watermark fix end to end
	for i := 0; i < 4000; i++ {
		if rng.Float64() < 0.7 {
			tm += rng.Float64()
		} // else: simultaneous event
		// Zipf-ish skew so some chunks go untouched between snapshots.
		src := int32(rng.Intn(numNodes))
		if rng.Float64() < 0.5 {
			src = int32(rng.Intn(adjChunkSize / 4))
		}
		dst := int32(rng.Intn(numNodes))
		events = append(events, Event{Src: src, Dst: dst, Time: tm})
		if err := b.Add(src, dst, tm); err != nil {
			t.Fatal(err)
		}
		if (i+1)%613 == 0 {
			g, tc := b.Snapshot()
			ref, err := NewGraph(numNodes, append([]Event(nil), events...))
			if err != nil {
				t.Fatal(err)
			}
			snaps = append(snaps, taken{at: i + 1, tc: tc, g: g, want: BuildTCSR(ref)})
		}
	}
	g, tc := b.Snapshot()
	ref, err := NewGraph(numNodes, append([]Event(nil), events...))
	if err != nil {
		t.Fatal(err)
	}
	snaps = append(snaps, taken{at: len(events), tc: tc, g: g, want: BuildTCSR(ref)})

	// Every snapshot — including the ones taken long before ingest finished —
	// must still match its own prefix's full repack bitwise.
	for _, s := range snaps {
		if s.g.NumEvents() != s.at {
			t.Fatalf("snapshot at %d holds %d events", s.at, s.g.NumEvents())
		}
		for i, ev := range s.g.Events {
			if ev != events[i] {
				t.Fatalf("snapshot at %d event %d: %+v vs %+v", s.at, i, ev, events[i])
			}
		}
		requireAdjEqual(t, s.tc, s.want) // every node's degree included
		// Pivots agree between the layouts at a few probe times.
		for _, v := range []int32{0, adjChunkSize - 1, adjChunkSize, numNodes - 1} {
			for _, q := range []float64{-10, -2.5, 0, tm / 2, tm + 1} {
				gotSearch, gotScan := pivots(s.tc, v, q)
				wantSearch, wantScan := pivots(s.want, v, q)
				if gotSearch != wantSearch || gotScan != wantScan {
					t.Fatalf("snapshot at %d: pivot mismatch node %d t=%v", s.at, v, q)
				}
			}
		}
	}
}

// TestSnapshotSharesUntouchedChunks pins the incremental contract: a publish
// after touching a single node re-freezes only that node's chunk and shares
// every other chunk pointer with the previous snapshot.
func TestSnapshotSharesUntouchedChunks(t *testing.T) {
	const numNodes = adjChunkSize * 3
	b := NewBuilder(numNodes)
	for v := 0; v < numNodes; v += 3 {
		if err := b.Add(int32(v), int32((v+1)%numNodes), float64(v)); err != nil {
			t.Fatal(err)
		}
	}
	_, first := b.Snapshot()
	// Touch two nodes inside chunk 1 only.
	if err := b.Add(adjChunkSize+1, adjChunkSize+2, float64(numNodes)); err != nil {
		t.Fatal(err)
	}
	_, second := b.Snapshot()
	if &first.chunks[0][0] != &second.chunks[0][0] || &first.chunks[2][0] != &second.chunks[2][0] {
		t.Fatal("untouched chunks must be shared structurally")
	}
	if &first.chunks[1][0] == &second.chunks[1][0] {
		t.Fatal("the touched chunk must be re-frozen")
	}
	// The old snapshot still reads the pre-touch degree.
	if first.Degree(adjChunkSize+1) >= second.Degree(adjChunkSize+1) {
		t.Fatalf("old snapshot leaked new events: %d vs %d",
			first.Degree(adjChunkSize+1), second.Degree(adjChunkSize+1))
	}
}

func TestBuilderLiveMatchesSnapshotNeighborhood(t *testing.T) {
	rng := mathx.NewRNG(6)
	b := NewBuilder(10)
	tm := 0.0
	for i := 0; i < 200; i++ {
		tm += rng.Float64()
		if err := b.Add(int32(rng.Intn(10)), int32(rng.Intn(10)), tm); err != nil {
			t.Fatal(err)
		}
	}
	_, tc := b.Snapshot()
	for v := int32(0); v < 10; v++ {
		for _, q := range []float64{0, tm / 2, tm + 1} {
			ln, _, _ := live(b, v, q)
			if p, _ := pivots(tc, v, q); len(ln) != p {
				t.Fatalf("live vs snapshot pivot mismatch node %d t=%v", v, q)
			}
		}
	}
	// Builder stays usable after snapshotting.
	if err := b.Add(0, 1, tm+2); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderSelfLoop(t *testing.T) {
	b := NewBuilder(2)
	if err := b.Add(1, 1, 1); err != nil {
		t.Fatal(err)
	}
	nbr, _, _ := live(b, 1, 2)
	if len(nbr) != 1 || nbr[0] != 1 {
		t.Fatal("self loop must appear once")
	}
}

// BenchmarkSnapshotPublish contrasts the incremental publish against the
// from-scratch repack at a fixed stream position: the incremental path's cost
// tracks the delta (SnapshotEvery events), the repack's tracks the stream.
func BenchmarkSnapshotPublish(b *testing.B) {
	const numNodes, stream, delta = 2000, 60000, 256
	build := func() (*Builder, []Event) {
		rng := mathx.NewRNG(3)
		bl := NewBuilder(numNodes)
		events := make([]Event, 0, stream)
		tm := 0.0
		for i := 0; i < stream; i++ {
			tm += rng.Float64()
			ev := Event{Src: int32(rng.Intn(numNodes)), Dst: int32(rng.Intn(numNodes)), Time: tm}
			events = append(events, ev)
			if err := bl.Add(ev.Src, ev.Dst, ev.Time); err != nil {
				b.Fatal(err)
			}
		}
		return bl, events
	}
	b.Run("incremental", func(b *testing.B) {
		bl, events := build()
		bl.Snapshot()
		rng := mathx.NewRNG(4)
		tm := events[len(events)-1].Time
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < delta; j++ {
				tm += rng.Float64()
				if err := bl.Add(int32(rng.Intn(numNodes)), int32(rng.Intn(numNodes)), tm); err != nil {
					b.Fatal(err)
				}
			}
			bl.Snapshot()
		}
	})
	b.Run("full-repack", func(b *testing.B) {
		_, events := build()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g, err := NewGraph(numNodes, append([]Event(nil), events...))
			if err != nil {
				b.Fatal(err)
			}
			BuildTCSR(g)
		}
	})
}
