package rng

import "math/bits"

// SampleK draws k distinct integers uniformly from [0, n) in O(k) time and
// space using a sparse partial Fisher–Yates shuffle (swaps tracked in a
// small hash table instead of materializing the n-element permutation).
// This is the "choose µ coordinates uniformly at random without
// replacement" step of Alg. 1 line 5 / Alg. 2 line 6; O(k) matters
// because the solvers sample every iteration from feature counts up to
// the url replica's 10⁵–10⁶.
//
// The returned indices are in draw order (not sorted), which is the order
// the algorithms consume them in; identical seeds give identical draws on
// every rank.
func (r *Stream) SampleK(n, k int) []int {
	if k < 0 || k > n {
		panic("rng: SampleK k out of range")
	}
	out := make([]int, k)
	r.SampleKInto(n, out, NewSwaps(k))
	return out
}

// Swaps is SampleKInto's scratch: an open-addressed table, probed
// linearly, of (position + 1, value) pairs, in which a zero pair is an
// empty slot. A draw of k stores at most k positions, so a table of at
// least 2k slots is never more than half full.
type Swaps [][2]int

// NewSwaps returns a table for draws of up to k: the least power of two
// of slots that is at least 2k.
func NewSwaps(k int) Swaps {
	return make(Swaps, 1<<bits.Len(uint(max(2*k-1, 0))))
}

// SampleKInto is SampleK with k = len(out), writing the draws to out
// and tracking the swaps in the caller's table, which it clears first
// and which must hold at least NewSwaps(len(out)) slots, a power of two.
// A caller that samples every iteration keeps both and allocates
// nothing; the draws are those of SampleK(n, len(out)).
func (r *Stream) SampleKInto(n int, out []int, swaps Swaps) {
	k := len(out)
	if k > n {
		panic("rng: SampleKInto len(out) out of range")
	}
	if len(swaps) < 2*k || len(swaps)&(len(swaps)-1) != 0 {
		panic("rng: SampleKInto swap table is not a power of two of at least 2·len(out) slots")
	}
	clear(swaps)
	shift := uint(64 - bits.TrailingZeros(uint(len(swaps))))
	for i := 0; i < k; i++ {
		j := i + r.Intn(n-i)
		vi, vj := i, j
		if ei := swaps.find(i, shift); ei[0] != 0 {
			vi = ei[1]
		}
		ej := swaps.find(j, shift)
		if ej[0] != 0 {
			vj = ej[1]
		}
		out[i] = vj
		ej[0], ej[1] = j+1, vi
		// Position i no longer matters: it is never revisited.
	}
}

// find returns the slot of position p: the one that holds it, or the
// empty slot where it goes. shift is 64 − log2(len(t)), so that the
// multiplicative hash keeps the product's top bits.
func (t Swaps) find(p int, shift uint) *[2]int {
	mask := uint64(len(t) - 1)
	for h := uint64(p) * 0x9e3779b97f4a7c15 >> shift; ; h = (h + 1) & mask {
		if e := &t[h]; e[0] == p+1 || e[0] == 0 {
			return e
		}
	}
}
