// Package encoding implements the fixed encodings TASER's neighbor encoder
// concatenates into neighbor embeddings (§III-B):
//
//   - TimeEncoder: GraphMixer's fixed time encoding Φ(Δt) = cos(Δt·ω) with
//     ω_i = α^{-(i-1)/β} (Eq. 8), mapping relative timespans to a
//     d-dimensional vector.
//   - FreqEncoder: the sinusoidal frequency encoding FE (Eq. 12) over the
//     number of times a neighbor reappears in the neighborhood.
//   - Identity: the identity encoding IE (Eq. 13), a per-neighborhood
//     indicator of which earlier-sorted neighbors are the same node.
//
// The learnable time encoding of TGAT (Eq. 3) lives with the model code in
// internal/models because it carries trainable parameters.
package encoding

import (
	"math"

	"taser/internal/mathx"
)

// TimeEncoder is the fixed (non-learnable) time encoding of Eq. 8.
type TimeEncoder struct {
	omega []float64
}

// NewTimeEncoder builds a d-dimensional encoder. alpha and beta default to
// √d when ≤ 0, the values used by GraphMixer.
func NewTimeEncoder(d int, alpha, beta float64) *TimeEncoder {
	if alpha <= 0 {
		alpha = math.Sqrt(float64(d))
	}
	if beta <= 0 {
		beta = math.Sqrt(float64(d))
	}
	e := &TimeEncoder{omega: make([]float64, d)}
	for i := 0; i < d; i++ {
		e.omega[i] = math.Pow(alpha, -float64(i)/beta)
	}
	return e
}

// Encode writes cos(dt·ω) into dst (len d), bitwise math.Cos of each.
func (e *TimeEncoder) Encode(dst []float64, dt float64) {
	e.EncodeRows(dst, []float64{dt})
}

// EncodeRows writes the encoding of dts[r] into row r of dst, a
// len(dts)×d block: every dt·ω product first, then one cosine over the
// whole block, so the kernel under CosInto sees one long slice rather than
// a short row per Δt. Each element is math.Cos(dt·ω), bit for bit.
func (e *TimeEncoder) EncodeRows(dst []float64, dts []float64) {
	d := len(e.omega)
	dst = dst[:len(dts)*d]
	for r, dt := range dts {
		row := dst[r*d : (r+1)*d]
		for i, w := range e.omega {
			row[i] = dt * w
		}
	}
	mathx.CosInto(dst, dst)
}

// FreqEncoder is the sinusoidal frequency encoding of Eq. 12. Frequencies
// are small discrete integers, so the transformer positional encoding is the
// right inductive bias (§III-B) — and so the encodings the sampler asks for
// (a count within a neighborhood of m) are a table built once.
type FreqEncoder struct {
	dim   int
	inv   []float64 // precomputed 1/10000^(2i/d)
	table []float64 // rows 0…maxFreq of compute's output, dim wide
}

// NewFreqEncoder builds a d-dimensional encoder (d should be even; an odd
// final dimension is handled by truncation) with the encodings of
// 0…maxFreq precomputed; Encode evaluates any other frequency on demand.
func NewFreqEncoder(d, maxFreq int) *FreqEncoder {
	e := &FreqEncoder{dim: d, inv: make([]float64, (d+1)/2)}
	for i := range e.inv {
		e.inv[i] = math.Pow(10000, -2*float64(i)/float64(d))
	}
	e.table = make([]float64, (maxFreq+1)*d)
	for f := 0; f <= maxFreq; f++ {
		e.compute(e.table[f*d:(f+1)*d], f)
	}
	return e
}

// Encode writes the sin/cos interleaved encoding of freq into dst (len d).
func (e *FreqEncoder) Encode(dst []float64, freq int) {
	if lo := freq * e.dim; freq >= 0 && lo < len(e.table) {
		copy(dst[:e.dim], e.table[lo:lo+e.dim])
		return
	}
	e.compute(dst, freq)
}

func (e *FreqEncoder) compute(dst []float64, freq int) {
	f := float64(freq)
	for i := 0; i < e.dim; i++ {
		x := f * e.inv[i/2]
		if i%2 == 0 {
			dst[i] = math.Sin(x)
		} else {
			dst[i] = math.Cos(x)
		}
	}
}

// Frequencies counts, for each position j in a neighborhood's node list, how
// many times nodes[j] appears in the whole list. Padding entries (−1) get
// frequency 0. Neighborhoods are tiny (the candidate budget m), so the
// quadratic scan beats a counting map and — being allocation-free — keeps the
// per-root hot loop of the adaptive encoder off the heap.
func Frequencies(nodes []int32, out []int) {
	for j, u := range nodes {
		if u < 0 {
			out[j] = 0
			continue
		}
		n := 0
		for _, v := range nodes {
			if v == u {
				n++
			}
		}
		out[j] = n
	}
}

// Identity writes row j of a neighborhood's identity encoding (Eq. 13), the
// neighborhood being sorted most-recent-first: dst[i] = IE(u_j, i) = 1 iff
// nodes[i] == nodes[j]. dst must have len(nodes) elements. A padding entry
// (−1) gets a zero row. Row-at-a-time because the sampler encodes valid
// candidates only.
func Identity(nodes []int32, j int, dst []float64) {
	if len(dst) != len(nodes) {
		panic("encoding: Identity shape")
	}
	u := nodes[j]
	for i, v := range nodes {
		if u >= 0 && v == u {
			dst[i] = 1
		} else {
			dst[i] = 0
		}
	}
}
