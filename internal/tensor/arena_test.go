package tensor

import (
	"math"
	"testing"
)

func TestArenaGetReturnsZeroedMatrix(t *testing.T) {
	a := NewArena()
	m := a.Get(3, 4)
	if m.Rows != 3 || m.Cols != 4 {
		t.Fatalf("shape %dx%d, want 3x4", m.Rows, m.Cols)
	}
	for i, v := range m.Data {
		if v != 0 {
			t.Fatalf("fresh checkout element %d = %v, want 0", i, v)
		}
	}
	m.Fill(7)
	a.Reset()
	m2 := a.Get(3, 4)
	for i, v := range m2.Data {
		if v != 0 {
			t.Fatalf("recycled checkout element %d = %v, want 0", i, v)
		}
	}
}

func TestArenaRecyclesStorageAndHeaders(t *testing.T) {
	a := NewArena()
	m := a.Get(4, 4)
	a.Reset()
	// The next pass starts where the last one did, whatever the shape.
	m2 := a.Get(2, 5)
	if &m2.Data[0] != &m.Data[:1][0] {
		t.Fatal("checkout after Reset did not reuse the storage")
	}
	if m2 != m {
		t.Fatal("checkout after Reset did not reuse the Matrix header")
	}
	if cap(m2.Data) != 10 {
		t.Fatalf("checkout has cap %d: growing it would run into its neighbor", cap(m2.Data))
	}
	m3 := a.Get(3, 3)
	m3.Fill(1)
	for _, v := range m2.Data {
		if v != 0 {
			t.Fatal("checkouts of one pass overlap")
		}
	}
	if a.InUse() != 2 {
		t.Fatalf("InUse = %d, want 2", a.InUse())
	}
	empty := a.Get(0, 7)
	if empty.Rows != 0 || empty.Cols != 7 || len(empty.Data) != 0 {
		t.Fatal("zero-row checkout")
	}
}

// TestArenaRetainsPeakPassUnderJitter is why the arena is a region and not a
// set of per-size free lists: passes whose matrix sizes move around (and
// trade places) are served from what the largest pass needed plus the growth
// headroom, with no allocation once that pass has been seen.
func TestArenaRetainsPeakPassUnderJitter(t *testing.T) {
	a := NewArena()
	pass := func(rows [4]int) (total int) {
		for _, r := range rows {
			a.Get(r, 16).Fill(1)
			total += r * 16
		}
		a.Reset()
		return total
	}
	peak := pass([4]int{1000, 900, 1100, 1000})
	held := a.capacity
	if held > peak+peak/4+arenaMinChunk {
		t.Fatalf("retains %d elements for a %d-element pass", held, peak)
	}
	jitter := func() {
		pass([4]int{700, 1100, 900, 1000})
		pass([4]int{1100, 700, 1000, 900})
		pass([4]int{520, 1030, 640, 990}) // crosses power-of-two sizes
	}
	if allocs := testing.AllocsPerRun(10, jitter); allocs > 0 {
		t.Fatalf("smaller jittering passes allocate %.1f times, want 0", allocs)
	}
	if a.capacity != held {
		t.Fatalf("smaller jittering passes grew the arena from %d to %d elements", held, a.capacity)
	}
}

func TestArenaSteadyStateAllocFree(t *testing.T) {
	a := NewArena()
	warm := func() {
		a.Get(8, 8)
		a.Get(1, 3)
		a.Get(16, 2)
		a.Reset()
	}
	warm()
	allocs := testing.AllocsPerRun(100, warm)
	if allocs > 0 {
		t.Fatalf("steady-state Get/Reset cycle allocates %.1f times, want 0", allocs)
	}
}

func TestArenaPoisonMarksReturnedSlabs(t *testing.T) {
	a := NewArena()
	a.SetPoison(true)
	m := a.Get(2, 2)
	m.Fill(1)
	a.Reset()
	// Stale reference: every element must now read NaN.
	for i, v := range m.Data {
		if !math.IsNaN(v) {
			t.Fatalf("poisoned slab element %d = %v, want NaN", i, v)
		}
	}
	// Legitimate reuse is unaffected: the next checkout is zeroed.
	m2 := a.Get(2, 2)
	for i, v := range m2.Data {
		if v != 0 {
			t.Fatalf("post-poison checkout element %d = %v, want 0", i, v)
		}
	}
}

// TestArenaGetUninitSkipsTheZeroFill pins the no-zero checkout: same header
// and storage recycling as Get, contents left as they were (that is the
// saving), NaN-filled in poison mode even on storage no Reset has poisoned
// yet — and a Get that follows on the same storage still reads zero.
func TestArenaGetUninitSkipsTheZeroFill(t *testing.T) {
	a := NewArena()
	a.SetPoison(false) // whatever TASER_ARENA_POISON says
	a.Get(2, 3).Fill(7)
	a.Reset()
	m := a.GetUninit(3, 2)
	if m.Rows != 3 || m.Cols != 2 || len(m.Data) != 6 || cap(m.Data) != 6 || a.InUse() != 1 {
		t.Fatalf("GetUninit(3, 2) = %dx%d len %d cap %d, InUse %d", m.Rows, m.Cols, len(m.Data), cap(m.Data), a.InUse())
	}
	for i, v := range m.Data {
		if v != 7 {
			t.Fatalf("element %d = %v: the checkout was rewritten, want the previous pass's 7", i, v)
		}
	}
	a.Reset()
	for i, v := range a.Get(3, 2).Data {
		if v != 0 {
			t.Fatalf("Get after GetUninit: element %d = %v, want 0", i, v)
		}
	}

	p := NewArena()
	p.SetPoison(true)
	for i, v := range p.GetUninit(2, 2).Data { // fresh chunk: zeros underneath
		if !math.IsNaN(v) {
			t.Fatalf("poisoned GetUninit element %d = %v, want NaN", i, v)
		}
	}
}

// TestResizeZeroFillsGrownRegion pins Resize's documented contract: growing a
// matrix within its existing capacity must zero the newly exposed region.
// Arena reuse makes this reachable on every hot path — a recycled slab holds
// the previous step's data beyond the current length, and Go reslicing does
// not clear it.
func TestResizeZeroFillsGrownRegion(t *testing.T) {
	m := New(4, 4)
	m.Fill(9)
	m.Resize(2, 2) // shrink: capacity 16 retained, elements 4..15 still 9 underneath
	m.Resize(3, 4) // grow within capacity: must expose zeros, not the stale 9s
	if cap(m.Data) < 16 {
		t.Fatal("test premise broken: backing array was reallocated")
	}
	for i, v := range m.Data {
		if v != 0 {
			t.Fatalf("grown region element %d = %v, want 0 (stale data leaked)", i, v)
		}
	}
	// Also via the shrink-free path: recycle at same size after writes.
	m.Fill(3)
	m.Resize(3, 4)
	for i, v := range m.Data {
		if v != 0 {
			t.Fatalf("same-size resize element %d = %v, want 0", i, v)
		}
	}
}

// TestResizeUninitSkipsTheZeroFill: ResizeUninit reshapes over the same
// backing array and leaves the elements as they were — NaN-filled when
// TASER_ARENA_POISON is set, like an un-zeroed arena checkout.
func TestResizeUninitSkipsTheZeroFill(t *testing.T) {
	t.Setenv(arenaPoisonEnv, "")
	m := New(4, 4)
	m.Fill(9)
	data := &m.Data[0]
	m.ResizeUninit(3, 5)
	if m.Rows != 3 || m.Cols != 5 || len(m.Data) != 15 || &m.Data[0] != data {
		t.Fatalf("ResizeUninit(3, 5) = %dx%d len %d, new backing array %v", m.Rows, m.Cols, len(m.Data), &m.Data[0] != data)
	}
	for i, v := range m.Data {
		if v != 9 {
			t.Fatalf("element %d = %v: the buffer was rewritten, want the previous use's 9", i, v)
		}
	}
	t.Setenv(arenaPoisonEnv, "1")
	m.ResizeUninit(2, 2)
	for i, v := range m.Data {
		if !math.IsNaN(v) {
			t.Fatalf("under poison element %d = %v, want NaN", i, v)
		}
	}
}
