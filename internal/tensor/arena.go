package tensor

import (
	"fmt"
	"math"
	"os"
)

// Arena is a region allocator for bounded-lifetime Matrix intermediates: Get
// carves a zeroed matrix (GetUninit an unwritten one) out of a few large
// backing chunks, Reset ends every outstanding checkout in one stroke by
// rewinding them. After one warm pass over a working set, a checkout performs
// no heap allocations — both the Matrix headers and the float64 storage are
// recycled.
//
// What it retains is the largest pass, not the largest of every shape: a
// checkout takes the first chunk with room, wherever the previous pass put
// the matrix of that position or size, so a working set whose row counts
// jitter from pass to pass (the number of valid neighbor slots does) costs
// its peak total plus the growth headroom. Chunks are never freed, moved or
// merged, so growing leaves no garbage behind.
//
// Lifetime contract (DESIGN.md §5): a checked-out matrix is owned by the
// caller until the next Reset; anything that must survive Reset has to be
// copied out. Chunks are always allocated by the arena itself — they can
// never alias caller-provided storage (e.g. pinned snapshot views), so
// resetting an arena cannot corrupt data owned by other subsystems.
//
// An Arena is not safe for concurrent use; attach one per single-threaded
// execution context (a training step's graph, a serving scheduler). A nil
// *Arena is the heap: its checkouts are tensor.New, which is what a graph
// without an arena runs on.
type Arena struct {
	chunks   []arenaChunk
	capacity int       // elements over all chunks
	hdrs     []*Matrix // headers, handed out in checkout order
	inUse    int       // checkouts since the last Reset
	poison   bool
}

// arenaChunk is one backing slab with its bump offset.
type arenaChunk struct {
	buf []float64
	off int
}

// arenaMinChunk is the smallest chunk, in elements (32 KB): a serving-sized
// pass fits in a handful.
const arenaMinChunk = 4096

// arenaPoisonEnv force-enables poisoning for every arena in the process, and
// for every matrix ResizeUninit reshapes; use it to flush use-after-Reset and
// unwritten-element bugs out of any binary without a rebuild.
const arenaPoisonEnv = "TASER_ARENA_POISON"

// NewArena returns an empty arena. Poison debugging is off unless the
// TASER_ARENA_POISON environment variable is non-empty.
func NewArena() *Arena {
	return &Arena{poison: poisonRequested()}
}

// poisonRequested reports whether TASER_ARENA_POISON is set.
func poisonRequested() bool { return os.Getenv(arenaPoisonEnv) != "" }

// SetPoison toggles the debug mode: on Reset every region handed out is
// filled with NaN, so any stale reference that outlives its checkout reads
// NaN and surfaces immediately (losses, gradients and predictions all go
// NaN) instead of silently consuming the next step's data. GetUninit hands
// its region out NaN-filled too, so an element its caller forgot to write
// surfaces the same way. Legitimate reuse is unaffected: Get zero-fills
// before handing a region back out.
func (a *Arena) SetPoison(on bool) { a.poison = on }

// Get checks out a zeroed r×c matrix. The result is indistinguishable from
// tensor.New(r, c) and is owned by the caller until the next Reset.
func (a *Arena) Get(r, c int) *Matrix {
	m := a.GetUninit(r, c)
	clear(m.Data)
	return m
}

// GetUninit is Get without the zero-fill, for a caller that writes every
// element before anything reads one (an op output a kernel overwrites): the
// contents are whatever an earlier checkout left there — NaN in poison mode.
func (a *Arena) GetUninit(r, c int) *Matrix {
	if a == nil {
		return New(r, c)
	}
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("tensor: Arena checkout %d×%d with negative dimension", r, c))
	}
	var m *Matrix
	if a.inUse < len(a.hdrs) {
		m = a.hdrs[a.inUse]
	} else {
		m = &Matrix{}
		a.hdrs = append(a.hdrs, m)
	}
	a.inUse++
	m.Rows, m.Cols, m.Data = r, c, a.carve(r*c)
	if a.poison {
		fillNaN(m.Data)
	}
	return m
}

// carve returns n elements from the first chunk with room, adding a
// chunk when none has. The slice's capacity is clipped so a caller growing it
// reallocates instead of running into its neighbor.
func (a *Arena) carve(n int) []float64 {
	for i := range a.chunks {
		ch := &a.chunks[i]
		if len(ch.buf)-ch.off >= n {
			data := ch.buf[ch.off : ch.off+n : ch.off+n]
			ch.off += n
			return data
		}
	}
	// A quarter of what is already held bounds both the number of chunks
	// (geometric) and the headroom a finished warm-up leaves unused.
	size := max(n, arenaMinChunk, a.capacity/4)
	buf := make([]float64, size)
	a.chunks = append(a.chunks, arenaChunk{buf: buf, off: n})
	a.capacity += size
	return buf[:n:n]
}

// Reset ends every outstanding checkout: all chunks rewind (their used part
// poisoned with NaN when the debug mode is on). Matrices obtained before
// Reset must not be used afterwards.
func (a *Arena) Reset() {
	for i := range a.chunks {
		ch := &a.chunks[i]
		if a.poison {
			fillNaN(ch.buf[:ch.off])
		}
		ch.off = 0
	}
	a.inUse = 0
}

func fillNaN(data []float64) {
	for i := range data {
		data[i] = math.NaN()
	}
}

// InUse reports the number of outstanding checkouts (for tests and metrics).
func (a *Arena) InUse() int { return a.inUse }
