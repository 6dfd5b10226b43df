// Package rng provides the deterministic pseudo-random number generation
// the synchronization-avoiding solvers depend on. The paper removes the
// synchronization otherwise needed to agree on sampled coordinates "by
// initializing the random number generator on all processors to the same
// seed" (§III, §V); this package makes that discipline explicit: a Stream
// seeded identically on every rank produces an identical sequence, so
// coordinate selection is communication-free.
//
// The generator is xoshiro256** seeded through SplitMix64. It is
// implemented here rather than taken from math/rand so that the sequence
// is stable across Go releases (reproducible experiments) and so streams
// can be cheaply forked per rank or per epoch.
package rng

import "math"

// Stream is a deterministic random stream. The zero value is invalid;
// construct with New.
type Stream struct {
	s        [4]uint64
	spare    float64 // cached second variate from the polar method
	hasSpare bool
}

// New returns a stream seeded from the given seed. Two streams with equal
// seeds produce identical sequences.
func New(seed uint64) *Stream {
	var st Stream
	sm := seed
	for i := range st.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		st.s[i] = z ^ (z >> 31)
	}
	// Guard against the all-zero state, which xoshiro cannot leave.
	if st.s[0]|st.s[1]|st.s[2]|st.s[3] == 0 {
		st.s[0] = 0x9e3779b97f4a7c15
	}
	return &st
}

// State is a portable snapshot of a Stream's position: the xoshiro256**
// words plus the polar method's cached variate. Checkpoint codecs
// serialize it so a restarted solver resumes the exact sampling sequence
// (the replicated-seed discipline survives a rank restart).
type State struct {
	S        [4]uint64
	Spare    float64
	HasSpare bool
}

// State snapshots the stream's position.
func (r *Stream) State() State {
	return State{S: r.s, Spare: r.spare, HasSpare: r.hasSpare}
}

// SetState rewinds (or fast-forwards) the stream to a snapshot taken with
// State. Two streams set to the same state produce identical sequences.
func (r *Stream) SetState(st State) {
	r.s = st.S
	r.spare = st.Spare
	r.hasSpare = st.HasSpare
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits (xoshiro256**).
func (r *Stream) Uint64() uint64 {
	res := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return res
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
// Rejection sampling removes modulo bias.
func (r *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	un := uint64(n)
	// Largest multiple of n that fits in 64 bits.
	limit := (math.MaxUint64 / un) * un
	for {
		v := r.Uint64()
		if v < limit {
			return int(v % un)
		}
	}
}

// Float64 returns a uniform value in [0, 1) with 53 random bits.
func (r *Stream) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// NormFloat64 returns a standard normal variate via the Marsaglia polar
// method. Deterministic given the stream state.
func (r *Stream) NormFloat64() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s == 0 || s >= 1 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(s) / s)
		r.spare = v * f
		r.hasSpare = true
		return u * f
	}
}
