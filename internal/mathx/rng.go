// Package mathx provides deterministic random number generation and small
// numeric helpers shared by every other package in the repository.
//
// All randomness in the project flows through RNG so that experiments are
// reproducible bit-for-bit given a seed. The generator is splitmix64-seeded
// xoshiro256**, which is fast, has a 256-bit state, and passes BigCrush.
package mathx

import "math"

// RNG is a deterministic pseudo-random number generator (xoshiro256**).
// It is NOT safe for concurrent use; use Split to derive independent
// per-worker generators.
type RNG struct {
	s [4]uint64

	haveSpare bool // Box–Muller cache for NormFloat64
	spare     float64
}

// NewRNG returns a generator seeded from seed via splitmix64 so that nearby
// seeds produce uncorrelated streams.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	r.Reseed(seed)
	return r
}

// Reseed re-initializes r in place so its stream is identical to a fresh
// NewRNG(seed), without allocating. It lets hot loops that need one stream
// per (call, block) pair — e.g. the GPU finder's per-block RNGs — reuse one
// generator per worker instead of heap-allocating one per block.
func (r *RNG) Reseed(seed uint64) {
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	r.haveSpare = false
}

// Split derives a new independent generator from r. The derived stream is
// seeded from two outputs of r, so successive Split calls yield distinct
// generators.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64() ^ (r.Uint64() << 1))
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("mathx: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// NormFloat64 returns a standard normal variate (Box–Muller; the spare value
// is cached between calls).
func (r *RNG) NormFloat64() float64 {
	if r.haveSpare {
		r.haveSpare = false
		return r.spare
	}
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(s) / s)
		r.spare = v * f
		r.haveSpare = true
		return u * f
	}
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle permutes the first n elements using swap, Fisher–Yates style.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
