package mat

import (
	"math"
	"sync/atomic"
)

// AtomicVec is a float64 vector whose elements are read and written with
// lock-free atomic operations — the shared iterate of the asynchronous
// (HOGWILD!-style) backend. Elements are stored as IEEE-754 bit patterns
// in uint64 words so sync/atomic applies; Add is a compare-and-swap
// loop, the standard construction for atomic float accumulation.
//
// Atomics are what make the async backend's races *benign*: concurrent
// workers may interleave element updates in any order (so results are
// not deterministic, unlike every other backend), but no update is ever
// lost or torn, and the race detector stays silent — the repository's
// -race CI gate covers the async solver like everything else.
type AtomicVec struct {
	bits []uint64
}

// NewAtomicVec returns a zeroed n-element atomic vector.
func NewAtomicVec(n int) *AtomicVec {
	return &AtomicVec{bits: make([]uint64, n)}
}

// NewAtomicVecFrom returns an atomic vector initialized to a copy of
// src.
func NewAtomicVecFrom(src []float64) *AtomicVec {
	v := NewAtomicVec(len(src))
	for i, x := range src {
		v.bits[i] = math.Float64bits(x) //saco:nolint atomicguard pre-publication init: the vector is not shared yet, plain stores cannot tear
	}
	return v
}

// Len returns the element count.
func (v *AtomicVec) Len() int { return len(v.bits) }

// Load atomically reads element i.
func (v *AtomicVec) Load(i int) float64 {
	return math.Float64frombits(atomic.LoadUint64(&v.bits[i]))
}

// Add atomically performs v[i] += delta via a CAS loop. Concurrent adds
// to one element serialize in some order; none is lost.
func (v *AtomicVec) Add(i int, delta float64) {
	for {
		old := atomic.LoadUint64(&v.bits[i])
		nw := math.Float64bits(math.Float64frombits(old) + delta)
		if atomic.CompareAndSwapUint64(&v.bits[i], old, nw) {
			return
		}
	}
}

// Snapshot copies the vector into dst (allocated when nil) with atomic
// element loads. Concurrent writers make the snapshot a per-element
// (not globally) consistent view; callers wanting a quiescent copy must
// join their workers first.
func (v *AtomicVec) Snapshot(dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, len(v.bits))
	}
	for i := range v.bits {
		dst[i] = math.Float64frombits(atomic.LoadUint64(&v.bits[i]))
	}
	return dst
}

// Gather atomically loads dst[k] = v[idx[k]].
func (v *AtomicVec) Gather(dst []float64, idx []int) {
	for k, i := range idx {
		dst[k] = v.Load(i)
	}
}

// ScatterAdd atomically performs v[idx[k]] += delta[k].
func (v *AtomicVec) ScatterAdd(delta []float64, idx []int) {
	for k, i := range idx {
		v.Add(i, delta[k])
	}
}
