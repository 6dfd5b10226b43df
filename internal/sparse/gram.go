package sparse

import (
	"fmt"
	"math"

	"saco/internal/mat"
	rt "saco/internal/runtime"
)

// gramWorkspace is the sparse accumulator of one Gram worker: the
// worker's operands scattered into one linked list per index. Entry a
// is a stored value v[a] of operand slot[a]; next[a] is the entry below
// it in its index's list (−1 ends the list), and head[r] is 1 + the
// newest entry at index r (0: none). When operands past the worker's
// rows remain to be scanned, bit r of has is also set exactly where
// head[r] is not 0, so a scan that mostly misses reads one bit per
// index, not four bytes. Between calls every head entry is 0 and every
// marker bit clear; next, slot and v are scratch.
type gramWorkspace struct {
	head []int32
	has  []uint64
	next []int32
	slot []int32
	v    []float64
}

// gramFree holds idle workspaces. A Gram call takes one per worker and
// hands it back, so concurrent callers on one shared matrix (HOGWILD
// workers, rt.Ranges workers) never share scratch and steady-state
// calls allocate nothing. It is a free list, not a sync.Pool: a GC
// cycle empties a pool, and re-registering it allocates on the next
// call. 64 slots is more than the Gram callers any solve runs at once
// (kernel or HOGWILD workers); a workspace that finds the list full is
// dropped, so the list retains at most 64 workspaces.
var gramFree = make(chan *gramWorkspace, 64)

// getGramWorkspace returns an all-clear workspace over the index space
// [0, dim) with room for entries scattered entries. A recycled one is
// grown where it is too short, never shrunk.
func getGramWorkspace(dim, entries int) *gramWorkspace {
	var w *gramWorkspace
	select {
	case w = <-gramFree:
	default:
		w = new(gramWorkspace)
	}
	if len(w.head) < dim {
		w.head = make([]int32, dim)
		w.has = make([]uint64, (dim+63)/64)
	}
	if len(w.v) < entries {
		w.next = make([]int32, entries)
		w.slot = make([]int32, entries)
		w.v = make([]float64, entries)
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
// Output rows are independent, so the triangle is split across the
// kernel workers, one workspace each; gramRows forms a range of rows
// with one pass over each operand.
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
//
// It pushes operands hi−1 … lo onto the per-index lists, each in
// storage order. Before operand i's entry (r, x) is pushed, r's list
// holds exactly the entries of the operands i+1 … hi−1 that store r, so
// walking it adds x·v to dst(i, slot) for each of them, and x·x goes to
// the diagonal. Operands past the range are then scanned once each
// against the complete lists. Either way entry (i, j) receives
// vi(r)·vj(r) for exactly the indices both operands store, in ascending
// r, onto its running value — the additions a two-pointer merge of the
// two lists (simd.MergeDot) performs, so every entry has the merge
// dot's bits.
func gramRows(dim int, ptr, idx []int, val []float64, sel []int, dst *mat.Dense, lo, hi int) {
	k := len(sel)
	entries := 0
	for _, op := range sel[lo:hi] {
		entries += ptr[op+1] - ptr[op]
	}
	if entries > math.MaxInt32 {
		panic(fmt.Sprintf("sparse: Gram rows [%d,%d) store %d entries, more than int32 links address", lo, hi, entries))
	}
	w := getGramWorkspace(dim, entries)
	head, has, next, slot, v := w.head, w.has, w.next, w.slot, w.v
	// Only a scan of operands past the range reads the marker bits.
	mark := hi < k

	c, out := dst.C, dst.Data
	a := int32(0)
	for i := hi - 1; i >= lo; i-- {
		p0, p1 := ptr[sel[i]], ptr[sel[i]+1]
		row := out[i*c : i*c+c]
		d := row[i]
		for p := p0; p < p1; p++ {
			r := idx[p]
			if uint(r) >= uint(dim) {
				panic(fmt.Sprintf("sparse: Gram index %d outside [0, %d)", r, dim))
			}
			x := val[p]
			d += x * x
			below := head[r] - 1
			for b := below; b >= 0; b = next[b] {
				row[slot[b]] += x * v[b]
			}
			next[a] = below
			slot[a] = int32(i)
			v[a] = x
			head[r] = a + 1
			if mark {
				has[r>>6] |= 1 << (uint(r) & 63)
			}
			a++
		}
		row[i] = d
	}
	for j := hi; j < k; j++ {
		q0, q1 := ptr[sel[j]], ptr[sel[j]+1]
		vj := val[q0:q1]
		for q, r := range idx[q0:q1] {
			if has[r>>6]&(1<<(uint(r)&63)) == 0 {
				continue
			}
			x := vj[q]
			for b := head[r] - 1; b >= 0; b = next[b] {
				out[int(slot[b])*c+j] += v[b] * x
			}
		}
	}

	for _, op := range sel[lo:hi] {
		for _, r := range idx[ptr[op]:ptr[op+1]] {
			head[r] = 0
			if mark {
				has[r>>6] = 0
			}
		}
	}
	// Not deferred: a panic above (a malformed matrix) must not recycle a
	// half-scattered workspace.
	putGramWorkspace(w)
}
