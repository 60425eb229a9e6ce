// Package autograd implements a reverse-mode automatic differentiation tape
// over tensor.Matrix values. It replaces the role PyTorch plays in the
// original TASER implementation.
//
// A Graph records one forward pass; Backward replays the tape in reverse,
// accumulating gradients into each Var's Grad matrix. Parameters are Vars
// created once with NewParam and reused across graphs; their gradients
// persist until the optimizer zeroes them. Intermediate Vars are created by
// the Graph's operator methods and live only as long as the graph.
//
// Graphs are reusable: Reset truncates the tape and recycles every
// intermediate, so one Graph can serve an unbounded stream of
// forward–backward passes with O(1) amortized heap allocations. The tape is a
// slice of value-typed entries dispatched by opcode (not per-op closures, so
// recording allocates nothing once the slice is warm), and a Graph built with
// NewWithArena draws every intermediate Val/Grad — plus caller scratch via
// Scratch and Ints — from an attached tensor.Arena that Reset returns in one
// stroke. The ownership contract is DESIGN.md §7: everything produced by a
// graph op or Scratch call dies at Reset; copy out anything that must
// survive. A pass that will never call Backward checks the graph out with
// ResetForwardOnly instead and pays for neither gradients nor a tape.
//
// Beyond the usual dense primitives, the package provides the fused grouped
// operations TASER's models need: per-neighborhood attention scoring and
// combination (TGAT, Eq. 7) and shared-weight token mixing over fixed-size
// neighborhoods (GraphMixer / the adaptive sampler's MLP-Mixer decoder,
// Eqs. 9 and 16).
package autograd

import (
	"fmt"

	"taser/internal/tensor"
)

// Var is a node in the autograd graph: a value and, if gradients are
// required, an accumulator of the same shape.
type Var struct {
	Val  *tensor.Matrix
	Grad *tensor.Matrix
}

// NewParam wraps m as a trainable parameter (gradient allocated). Parameters
// are heap-allocated and never recycled by Graph.Reset — they outlive every
// graph that records them.
func NewParam(m *tensor.Matrix) *Var {
	return &Var{Val: m, Grad: tensor.New(m.Rows, m.Cols)}
}

// NewConst wraps m as a constant (no gradient is ever accumulated). For
// constants created inside a step's forward pass, prefer Graph.Const, which
// recycles the Var header across Resets.
func NewConst(m *tensor.Matrix) *Var {
	return &Var{Val: m}
}

// NeedsGrad reports whether v participates in differentiation.
func (v *Var) NeedsGrad() bool { return v != nil && v.Grad != nil }

// Rows and Cols expose the underlying shape.
func (v *Var) Rows() int { return v.Val.Rows }
func (v *Var) Cols() int { return v.Val.Cols }

// varChunkSize is the Var-header slab granularity.
const varChunkSize = 128

// intChunkSize is the minimum Ints slab length.
const intChunkSize = 4096

// Graph records forward passes. The zero of reuse: after Reset the same Graph
// replays the same op sequence without touching the heap (arena-backed
// matrices, recycled Var headers, a truncated-in-place tape).
type Graph struct {
	tape  []tapeEntry
	arena *tensor.Arena

	// Var headers are handed out sequentially from fixed-size chunks and
	// rewound (not freed) on Reset.
	varChunks [][]Var
	nvars     int

	// varRefs backs the input lists of variadic ops (AffineParts,
	// ConcatCols): tape entries reference sub-slices of it by offset.
	varRefs []*Var

	// ints backs Ints: chunked so earlier checkouts stay valid while later
	// ones grow the slab list. Rewound on Reset.
	ints   [][]int32
	intCur int
	intOff int

	// matScratch and gradScratch are transient per-call space for kernels
	// taking []*Matrix (part values and part gradients).
	matScratch, gradScratch []*tensor.Matrix

	// forwardOnly is set by ResetForwardOnly for the pass it starts: no op
	// output carries a gradient, so nothing is recorded.
	forwardOnly bool
}

// New returns an empty graph without an arena: the tape and Var headers are
// still reusable via Reset, but intermediate matrices come from the heap.
// This is the right constructor for one-shot graphs (tests, external tools).
func New() *Graph { return &Graph{} }

// NewWithArena returns an empty graph whose intermediates (op outputs,
// gradients, Scratch matrices) are checked out of arena; Reset both rewinds
// the tape and resets the arena. The arena must not be shared with another
// concurrently used graph.
func NewWithArena(arena *tensor.Arena) *Graph { return &Graph{arena: arena} }

// NewReusable is NewWithArena over a fresh private arena — the standard
// per-execution-context graph (one per training step stream, one per serving
// scheduler).
func NewReusable() *Graph { return NewWithArena(tensor.NewArena()) }

// Arena exposes the attached arena (nil for New graphs); tests use it to
// enable poison debugging and inspect checkout counts.
func (g *Graph) Arena() *tensor.Arena { return g.arena }

// Reset ends the current pass: the tape is truncated in place, Var headers
// and Ints slabs rewind, and every arena checkout (op outputs, gradients,
// Scratch matrices) is recycled. All Vars, matrices and slices obtained from
// this graph since the previous Reset are dead — anything that must survive
// a step has to be copied out first.
func (g *Graph) Reset() {
	clear(g.tape) // drop caller-owned references (idx, labels, coefs)
	g.tape = g.tape[:0]
	clear(g.varRefs)
	g.varRefs = g.varRefs[:0]
	g.nvars = 0
	g.intCur, g.intOff = 0, 0
	g.forwardOnly = false
	if g.arena != nil {
		g.arena.Reset()
	}
}

// ResetForwardOnly is Reset for a pass that only reads values (serving,
// evaluation, drawing a Selection that is never co-trained): until the next
// Reset every op output is a constant — no Grad matrix is checked out and
// zero-filled for it, nothing is stashed for a backward body, no tape entry
// is pushed, Ops stays 0 — and Backward panics. Values are bitwise those of a
// recording pass.
func (g *Graph) ResetForwardOnly() {
	g.Reset()
	g.forwardOnly = true
}

// Ops reports the number of recorded backward steps (for tests/metrics).
func (g *Graph) Ops() int { return len(g.tape) }

func (g *Graph) push(e tapeEntry) { g.tape = append(g.tape, e) }

// newVar hands out a Var header from the chunk pool.
func (g *Graph) newVar(val, grad *tensor.Matrix) *Var {
	ci, off := g.nvars/varChunkSize, g.nvars%varChunkSize
	if ci == len(g.varChunks) {
		g.varChunks = append(g.varChunks, make([]Var, varChunkSize))
	}
	v := &g.varChunks[ci][off]
	v.Val, v.Grad = val, grad
	g.nvars++
	return v
}

// out allocates a result Var; it carries a gradient buffer iff any input
// requires gradients and the pass records. The gradient is zeroed (backward
// bodies accumulate into it); Val is not — every op overwrites every element
// of its output, padding included (ScatterRows' unnamed rows, GroupedScore's
// unnamed slots). TestReusedGraphBitwiseEqualsFresh holds every op to that.
func (g *Graph) out(rows, cols int, needsGrad bool) *Var {
	var grad *tensor.Matrix
	if needsGrad && !g.forwardOnly {
		grad = g.arena.Get(rows, cols)
	}
	return g.newVar(g.arena.GetUninit(rows, cols), grad)
}

// Const wraps m as a constant whose Var header is recycled on Reset — the
// graph-lifetime counterpart of NewConst for matrices threaded into a forward
// pass (sliced features, masks, time columns). m itself is borrowed, never
// owned: Reset does not touch it.
func (g *Graph) Const(m *tensor.Matrix) *Var { return g.newVar(m, nil) }

// Scratch checks out a zeroed r×c matrix with graph lifetime that is NOT a
// tape node: callers fill it (time encodings, coefficient tables, mask
// columns) and typically wrap it with Const or pass it to a *Const op. It is
// recycled at Reset like every other intermediate.
func (g *Graph) Scratch(r, c int) *tensor.Matrix { return g.arena.Get(r, c) }

// Ints checks out an int32 slice of length n with graph lifetime (gather
// index vectors live as long as the tape that references them). Contents are
// unspecified — callers must fully overwrite. Recycled at Reset.
func (g *Graph) Ints(n int) []int32 {
	for {
		if g.intCur < len(g.ints) {
			chunk := g.ints[g.intCur]
			if g.intOff+n <= len(chunk) {
				s := chunk[g.intOff : g.intOff+n : g.intOff+n]
				g.intOff += n
				return s
			}
			g.intCur++
			g.intOff = 0
			continue
		}
		size := intChunkSize
		if n > size {
			size = n
		}
		g.ints = append(g.ints, make([]int32, size))
	}
}

// Backward seeds d(loss)/d(loss)=1 and replays the tape in reverse. loss must
// be a 1×1 Var produced by this graph.
func (g *Graph) Backward(loss *Var) {
	if loss.Val.Rows != 1 || loss.Val.Cols != 1 {
		panic(fmt.Sprintf("autograd: Backward on %dx%d, want scalar", loss.Val.Rows, loss.Val.Cols))
	}
	if !loss.NeedsGrad() {
		panic("autograd: Backward on a constant loss")
	}
	loss.Grad.Data[0] = 1
	for i := len(g.tape) - 1; i >= 0; i-- {
		g.backstep(&g.tape[i])
	}
}

// --- dense primitives ---
// Each op computes its result eagerly and, when the output carries gradient,
// records one value-typed tape entry; the matching backward body lives in
// backstep (tape.go).

// Affine returns x @ w + b, the 1×C row vector b broadcast over every row:
// a linear layer as one op, AffineParts with one part.
func (g *Graph) Affine(x, w, b *Var) *Var { return g.AffineParts(w, b, x) }

// AffineParts returns [x₀ ‖ x₁ ‖ …] @ w + b without forming the
// concatenation: each part multiplies its own row block of w and the bias
// lands in the tile's store (tensor.MatMulPartsInto), one add after each
// element's sum. The backward adds each part's gradient, and each row block
// of w's, straight from the output's gradient. Values and gradients are
// bitwise those of Affine(ConcatCols(parts…), w, b) wherever that
// concatenation would have had one reader, or parts no other op reads: then
// every part's gradient accumulates in the same order (DESIGN.md §13).
func (g *Graph) AffineParts(w, b *Var, parts ...*Var) *Var {
	if b.Rows() != 1 || b.Cols() != w.Cols() {
		panic(fmt.Sprintf("autograd: Affine bias %dx%d onto %d columns", b.Rows(), b.Cols(), w.Cols()))
	}
	needs := w.NeedsGrad() || b.NeedsGrad()
	vals := g.matScratch[:0]
	for _, p := range parts {
		needs = needs || p.NeedsGrad()
		vals = append(vals, p.Val)
	}
	g.matScratch = vals
	o := g.out(parts[0].Rows(), w.Cols(), needs)
	tensor.MatMulPartsInto(o.Val, w.Val, vals, b.Val.Data)
	if o.NeedsGrad() {
		lo, hi := g.refs(parts)
		g.push(tapeEntry{op: opAffine, out: o, b: w, c: b, refLo: lo, refHi: hi})
	}
	return o
}

// refs copies a variadic part list into the graph-owned ref table and
// returns its range there: the caller's slice must not be retained (it may
// live on the caller's stack).
func (g *Graph) refs(parts []*Var) (lo, hi int) {
	lo = len(g.varRefs)
	g.varRefs = append(g.varRefs, parts...)
	return lo, len(g.varRefs)
}

// Add returns a + b (same shape).
func (g *Graph) Add(a, b *Var) *Var {
	o := g.out(a.Rows(), a.Cols(), a.NeedsGrad() || b.NeedsGrad())
	tensor.AddInto(o.Val, a.Val, b.Val)
	if o.NeedsGrad() {
		g.push(tapeEntry{op: opAdd, out: o, a: a, b: b})
	}
	return o
}

// Sub returns a - b.
func (g *Graph) Sub(a, b *Var) *Var {
	o := g.out(a.Rows(), a.Cols(), a.NeedsGrad() || b.NeedsGrad())
	tensor.SubInto(o.Val, a.Val, b.Val)
	if o.NeedsGrad() {
		g.push(tapeEntry{op: opSub, out: o, a: a, b: b})
	}
	return o
}

// Mul returns the Hadamard product a ⊙ b.
func (g *Graph) Mul(a, b *Var) *Var {
	o := g.out(a.Rows(), a.Cols(), a.NeedsGrad() || b.NeedsGrad())
	tensor.MulInto(o.Val, a.Val, b.Val)
	if o.NeedsGrad() {
		g.push(tapeEntry{op: opMul, out: o, a: a, b: b})
	}
	return o
}

// Scale returns s·a for a constant scalar s.
func (g *Graph) Scale(a *Var, s float64) *Var {
	o := g.out(a.Rows(), a.Cols(), a.NeedsGrad())
	tensor.ScaleInto(o.Val, a.Val, s)
	if o.NeedsGrad() {
		g.push(tapeEntry{op: opScale, out: o, a: a, scalar: s})
	}
	return o
}

// ConcatCols concatenates parts along the column axis. A concatenation that
// only feeds a linear layer is AffineParts' job; this op is for one whose
// value is read otherwise (scattered, gathered).
func (g *Graph) ConcatCols(parts ...*Var) *Var {
	rows := parts[0].Rows()
	cols := 0
	needs := false
	g.matScratch = g.matScratch[:0]
	for _, p := range parts {
		cols += p.Cols()
		needs = needs || p.NeedsGrad()
		g.matScratch = append(g.matScratch, p.Val)
	}
	o := g.out(rows, cols, needs)
	tensor.ConcatColsInto(o.Val, g.matScratch...)
	if o.NeedsGrad() {
		lo, hi := g.refs(parts)
		g.push(tapeEntry{op: opConcatCols, out: o, refLo: lo, refHi: hi})
	}
	return o
}

// Reshape reinterprets a's row-major data as rows×cols (element count must
// match). Used to fold (B·m)×1 score columns into B×m neighborhoods.
func (g *Graph) Reshape(a *Var, rows, cols int) *Var {
	if rows*cols != a.Rows()*a.Cols() {
		panic(fmt.Sprintf("autograd: Reshape %dx%d to %dx%d", a.Rows(), a.Cols(), rows, cols))
	}
	o := g.out(rows, cols, a.NeedsGrad())
	copy(o.Val.Data, a.Val.Data)
	if o.NeedsGrad() {
		g.push(tapeEntry{op: opReshape, out: o, a: a})
	}
	return o
}

// GatherRows selects rows idx from src (src may be a large embedding table).
// idx is borrowed until Backward/Reset; Graph.Ints provides index storage
// with exactly that lifetime.
func (g *Graph) GatherRows(src *Var, idx []int32) *Var {
	o := g.out(len(idx), src.Cols(), src.NeedsGrad())
	tensor.GatherRowsInto(o.Val, src.Val, idx)
	if o.NeedsGrad() {
		g.push(tapeEntry{op: opGatherRows, out: o, a: src, idx: idx})
	}
	return o
}

// ScatterRows is GatherRows' adjoint: a rows×C matrix whose row idx[i] is src
// row i and whose other rows are exact zeros, each row written once. idx must
// be strictly ascending and, like GatherRows' index, is borrowed until
// Backward/Reset. The models use it where a product along the slot axis —
// token mixing — needs rows computed on valid neighbor slots only back in the
// padded layout, with exact zeros at padding; the neighborhood reductions
// read the compact rows themselves (grouped.go).
func (g *Graph) ScatterRows(src *Var, idx []int32, rows int) *Var {
	o := g.out(rows, src.Cols(), src.NeedsGrad())
	tensor.ScatterRowsInto(o.Val, src.Val, idx)
	if o.NeedsGrad() {
		g.push(tapeEntry{op: opScatterRows, out: o, a: src, idx: idx})
	}
	return o
}
