package rng

// SampleK draws k distinct integers uniformly from [0, n) in O(k) time and
// space using a sparse partial Fisher–Yates shuffle (swaps tracked in a
// map instead of materializing the n-element permutation). This is the
// "choose µ coordinates uniformly at random without replacement" step of
// Alg. 1 line 5 / Alg. 2 line 6; O(k) matters because the solvers sample
// every iteration from feature counts up to the url replica's 10⁵–10⁶.
//
// The returned indices are in draw order (not sorted), which is the order
// the algorithms consume them in; identical seeds give identical draws on
// every rank.
func (r *Stream) SampleK(n, k int) []int {
	if k < 0 || k > n {
		panic("rng: SampleK k out of range")
	}
	out := make([]int, k)
	r.SampleKInto(n, out, make(map[int]int, k))
	return out
}

// SampleKInto is SampleK with k = len(out), writing the draws to out
// and tracking the swaps in the caller's map, which it clears first. A
// caller that samples every iteration keeps both and allocates nothing;
// the draws are those of SampleK(n, len(out)).
func (r *Stream) SampleKInto(n int, out []int, swaps map[int]int) {
	k := len(out)
	if k > n {
		panic("rng: SampleKInto len(out) out of range")
	}
	clear(swaps)
	for i := 0; i < k; i++ {
		j := i + r.Intn(n-i)
		vi, ok := swaps[i]
		if !ok {
			vi = i
		}
		vj, ok := swaps[j]
		if !ok {
			vj = j
		}
		out[i] = vj
		swaps[j] = vi
		// swaps[i] no longer matters: position i is never revisited.
	}
}
