// Package rng provides a small, fast, deterministic pseudo-random number
// generator whose entire state is a plain value.
//
// The simulator checkpoints machine state by structurally copying it
// (see pipeline.Machine.Clone), so every stateful component must be
// copyable by assignment. math/rand's Source hides its state behind a
// pointer, which makes checkpointing awkward; this package instead
// implements xoshiro256** seeded via splitmix64. Copying an Rng value
// yields an independent generator that replays the identical sequence.
package rng

import "math"

// Rng is a xoshiro256** generator. The zero value is not a valid
// generator; obtain one with New. Copying an Rng copies its state.
type Rng struct {
	s0, s1, s2, s3 uint64
}

// splitmix64 advances *x and returns the next splitmix64 output.
// It is used only to expand a seed into the xoshiro state.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded from seed. Two generators built from the
// same seed produce identical sequences.
func New(seed uint64) Rng {
	var r Rng
	r.Seed(seed)
	return r
}

// Seed resets the generator to the state derived from seed.
func (r *Rng) Seed(seed uint64) {
	x := seed
	r.s0 = splitmix64(&x)
	r.s1 = splitmix64(&x)
	r.s2 = splitmix64(&x)
	r.s3 = splitmix64(&x)
	// xoshiro requires a nonzero state; splitmix64 of any seed yields one
	// with overwhelming probability, but guard against the pathological case.
	if r.s0|r.s1|r.s2|r.s3 == 0 {
		r.s0 = 0x9e3779b97f4a7c15
	}
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next value in the sequence.
func (r *Rng) Uint64() uint64 {
	result := rotl(r.s1*5, 7) * 9
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = rotl(r.s3, 45)
	return result
}

// Intn returns a value uniformly distributed in [0, n). It panics if n <= 0.
func (r *Rng) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Uint53 returns the next value reduced to its top 53 bits: the integer
// behind Float64, uniform in [0, 2^53).
func (r *Rng) Uint53() uint64 { return r.Uint64() >> 11 }

// Float64 returns a value uniformly distributed in [0, 1).
func (r *Rng) Float64() float64 {
	return float64(r.Uint53()) / (1 << 53)
}

// Threshold converts a probability into the integer cut ⌈p·2^53⌉,
// clamped to [0, 2^53], for which Uint53() < Threshold(p) holds exactly
// when Float64() < p would: Float64 is Uint53 scaled by 2^-53, which is
// exact, so the float compare and the integer one agree on every draw.
// Generators precompute their cuts once and compare integers per draw,
// Uint53() < cut, which inlines.
func Threshold(p float64) uint64 {
	switch {
	case !(p > 0): // also NaN: Float64() < NaN is never true
		return 0
	case p >= 1:
		return 1 << 53
	}
	return uint64(math.Ceil(p * (1 << 53)))
}

// Bool returns true with probability p.
func (r *Rng) Bool(p float64) bool {
	return r.Uint53() < Threshold(p)
}

// Geometric returns a sample from a geometric distribution with mean m
// (m >= 1): the number of Bernoulli trials with success probability 1/m
// up to and including the first success. It is used to draw burst lengths
// and gap lengths in the synthetic application models.
func (r *Rng) Geometric(m float64) int {
	if m <= 1 {
		return 1
	}
	t := Threshold(1 / m)
	n := 1
	for r.Uint53() >= t && n < int(16*m) {
		n++
	}
	return n
}
