package tgraph

import "testing"

// TestTailerFollowsIncrementalSnapshots drives a Tailer over successive
// Builder snapshots and checks it returns exactly the appended suffix each
// time, as views that alias the shared event array (no copying).
func TestTailerFollowsIncrementalSnapshots(t *testing.T) {
	b := NewBuilder(16)
	var tl Tailer
	total := 0
	for round := 0; round < 5; round++ {
		add := 3 + round
		for i := 0; i < add; i++ {
			if err := b.Add(int32(i%16), int32((i+1)%16), float64(total+i)); err != nil {
				t.Fatal(err)
			}
		}
		total += add
		g, _ := b.Snapshot()
		ev, _, err := tl.NextWindow(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(ev) != add {
			t.Fatalf("round %d: got %d events, want %d", round, len(ev), add)
		}
		if ev[0].Time != float64(total-add) || ev[len(ev)-1].Time != float64(total-1) {
			t.Fatalf("round %d: wrong suffix [%v, %v]", round, ev[0].Time, ev[len(ev)-1].Time)
		}
		if tl.next != total {
			t.Fatalf("round %d: consumed %d, want %d", round, tl.next, total)
		}
	}
	// Idle round: nothing new.
	g, _ := b.Snapshot()
	if ev, _, err := tl.NextWindow(g, 0); err != nil || len(ev) != 0 {
		t.Fatalf("idle round returned %d events, err %v", len(ev), err)
	}
}

// TestTailerWindowSkipsBacklog checks the recency cap: a tailer far behind
// the stream gets only the freshest window and reports the skipped count.
func TestTailerWindowSkipsBacklog(t *testing.T) {
	b := NewBuilder(8)
	for i := 0; i < 100; i++ {
		if err := b.Add(int32(i%8), int32((i+3)%8), float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	g, _ := b.Snapshot()
	var tl Tailer
	ev, skipped, err := tl.NextWindow(g, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(ev) != 16 || skipped != 84 {
		t.Fatalf("got %d events, %d skipped; want 16, 84", len(ev), skipped)
	}
	if ev[0].Time != 84 || ev[15].Time != 99 {
		t.Fatalf("window is [%v, %v], want [84, 99]", ev[0].Time, ev[15].Time)
	}
	if tl.next != 100 {
		t.Fatalf("consumed %d, want 100", tl.next)
	}
	// A shrunken stream is an error, not silent corruption.
	if _, _, err := tl.NextWindow(&Graph{NumNodes: 8}, 0); err == nil {
		t.Fatal("expected error on shrunken stream")
	}
}
