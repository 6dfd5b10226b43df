package sparse

import (
	"saco/internal/mat"
	rt "saco/internal/runtime"
)

// gramWorkspace is the sparse accumulator of one Gram worker. While an
// output row is being formed, bit r of has is set exactly where operand
// i stores an entry (zero-valued or not) and val[r] is that entry;
// between rows every bit is clear. The marker — never a zero in val —
// decides what is a match, so explicit zeros, −0, ±Inf and NaN
// contribute the same products as in a merge of the two index lists.
// One bit per index keeps the marker in L1 (2 KB for 16 K indices) and
// val is read only on a match, so the gather stays cheap when the index
// space is far larger than the cache.
type gramWorkspace struct {
	val []float64
	has []uint64
}

// gramFree holds idle workspaces. A Gram call takes one per worker and
// hands it back, so concurrent callers on one shared matrix (HOGWILD
// workers, rt.Ranges workers) never share scratch and steady-state
// calls allocate nothing. It is a free list, not a sync.Pool: a GC
// cycle empties a pool, and re-registering it allocates on the next
// call. 64 slots is more than the Gram callers any solve runs at once
// (kernel or HOGWILD workers); a workspace that finds the list full is
// dropped, so the list retains at most 64 × 8 bytes per index.
var gramFree = make(chan *gramWorkspace, 64)

// getGramWorkspace returns an all-clear workspace over [0, dim). A
// recycled one that is longer is used as is; a shorter one is replaced.
func getGramWorkspace(dim int) *gramWorkspace {
	var w *gramWorkspace
	select {
	case w = <-gramFree:
	default:
		w = new(gramWorkspace)
	}
	if len(w.val) < dim {
		w.val = make([]float64, dim)
		w.has = make([]uint64, (dim+63)/64)
	}
	return w
}

func putGramWorkspace(w *gramWorkspace) {
	select {
	case gramFree <- w:
	default:
	}
}

// gramAcc is the one sparse Gram kernel. The operands are the index
// lists sel[0], sel[1], … of a compressed matrix (ptr, idx, val) over
// the index space [0, dim): columns of a CSC or rows of a CSR, possibly
// with repeats. For each i ≤ j it continues dst(i,j) with operand i ·
// operand j, leaving the lower triangle alone.
//
// Output row i scatters operand i once into the workspace; entry (i,j)
// is then a masked gather over operand j — the indices both operands
// store, visited in ascending order, each adding vi·vj to the running
// sum. That is the sequence of additions a two-pointer merge of the two
// sorted index lists (simd.MergeDot) performs, from the same initial
// accumulator, so every entry has the bits of the pairwise merge dot it
// replaces; what is saved is re-scanning operand i, and comparing
// indices, once per j. Output rows are independent, so the triangle is
// split across the kernel workers, one workspace each.
func gramAcc(workers, dim int, ptr, idx []int, val []float64, sel []int, dst *mat.Dense) {
	k := len(sel)
	if workers > 1 && k >= 4 {
		rt.Ranges(rt.TriangleRanges(k, workers), func(lo, hi int) {
			gramRows(dim, ptr, idx, val, sel, dst, lo, hi)
		})
	} else {
		gramRows(dim, ptr, idx, val, sel, dst, 0, k)
	}
}

// gramRows continues output rows [lo, hi) of gramAcc's upper triangle.
func gramRows(dim int, ptr, idx []int, val []float64, sel []int, dst *mat.Dense, lo, hi int) {
	k := len(sel)
	w := getGramWorkspace(dim)
	has := w.has
	for i := lo; i < hi; i++ {
		p0, p1 := ptr[sel[i]], ptr[sel[i]+1]
		for p := p0; p < p1; p++ {
			r := idx[p]
			w.val[r] = val[p]
			has[r>>6] |= 1 << (uint(r) & 63)
		}
		out := dst.Row(i)
		for j := i; j < k; j++ {
			q0, q1 := ptr[sel[j]], ptr[sel[j]+1]
			vj := val[q0:q1]
			acc := out[j]
			for q, r := range idx[q0:q1] {
				if has[r>>6]&(1<<(uint(r)&63)) != 0 {
					acc += w.val[r] * vj[q]
				}
			}
			out[j] = acc
		}
		// Un-scatter: every set bit belongs to operand i, so clearing
		// its words restores the all-clear state without a sweep.
		for p := p0; p < p1; p++ {
			has[idx[p]>>6] = 0
		}
	}
	// Not deferred: a panic above (a malformed matrix) must not recycle a
	// half-scattered workspace.
	putGramWorkspace(w)
}
