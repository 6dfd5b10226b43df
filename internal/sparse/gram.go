package sparse

import (
	"fmt"
	"math"

	"saco/internal/mat"
	rt "saco/internal/runtime"
)

// gramWorkspace is the sparse accumulator of one Gram worker: the
// worker's operands scattered into one linked list per index. Node a
// is one stored entry; its next is the node below it in its index's
// list (−1 ends the list). head[r] is base + 1 + the newest node at
// index r, stamped by the current call; an entry ≤ base was stamped by
// an earlier call and reads as an empty list, so heads are never
// cleared between calls. hits[:nhits] are, in push order, the nodes
// that were pushed onto a non-empty list, and pushed counts the nodes.
// When operands past the worker's rows remain to be scanned, bit r of
// has is also set exactly where r has a list, so a scan that mostly
// misses reads one bit per index, not four bytes. Between calls every
// head entry is ≤ base and every marker bit clear; the rest is
// scratch. sink keeps what prefetch loads, so that the loads stay.
type gramWorkspace struct {
	head   []int32
	has    []uint64
	node   []gramNode
	hits   []int32
	base   int32
	pushed int32
	nhits  int
	sink   int
}

// gramNode is a stored value v of operand slot, packed into 16 bytes
// so that a list step reads one cache line, not three arrays.
type gramNode struct {
	v          float64
	next, slot int32
}

// gramFree holds idle workspaces. A Gram call takes one per worker and
// hands it back, so concurrent callers on one shared matrix (library
// goroutines, rt.Ranges workers) never share scratch and steady-state
// calls allocate nothing. It is a free list, not a sync.Pool: a GC
// cycle empties a pool, and re-registering it allocates on the next
// call. 64 slots is more than the Gram callers any solve runs at once
// (kernel workers, simulated ranks); a workspace that finds the list full is
// dropped, so the list retains at most 64 workspaces.
var gramFree = make(chan *gramWorkspace, 64)

// getGramWorkspace returns a workspace over the index space [0, dim)
// with room for entries scattered entries, every head entry ≤ base and
// every marker bit clear. A recycled one is grown where it is too
// short, never shrunk. Its heads are cleared, and base restarts at 0,
// only when base + entries could pass the int32 stamps' range.
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
		w.base = 0
	} else if entries > math.MaxInt32-int(w.base) {
		clear(w.head)
		w.base = 0
	}
	if len(w.node) < entries {
		w.node = make([]gramNode, entries)
		w.hits = make([]int32, entries)
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
// executors the work rule grants the operands' entries and the k(k+1)/2
// output pairs, one workspace each; gramRows forms a range of rows with
// one pass over each operand.
func gramAcc(workers, dim int, ptr, idx []int, val []float64, sel []int, dst *mat.Dense) {
	k := len(sel)
	if w := forkWidth(workers, ptr, sel, k*(k+1)/2); w > 1 {
		rt.Ranges(rt.TriangleRanges(k, w), func(lo, hi int) {
			gramRows(dim, ptr, idx, val, sel, dst, lo, hi)
		})
	} else {
		gramRows(dim, ptr, idx, val, sel, dst, 0, k)
	}
}

// gramRows continues output rows [lo, hi) of gramAcc's upper triangle
// in two passes, after prefetch has brought the operands' first
// prefetchBytes into cache.
//
// The push pass pushes operands hi−1 … lo onto the per-index lists,
// each in storage order, adds x·x of each entry (r, x) to the diagonal,
// and records in hits the entries whose list was not empty. A node's
// link is frozen at its push: from operand i's entry at r it reaches
// exactly the entries of the operands i+1 … hi−1 that store r. The
// walk pass then follows each hit's link and adds x·v to dst(i, slot).
// Operands past the range are scanned once each against the complete
// lists. Either way entry (i, j) receives vi(r)·vj(r) for exactly the
// indices both operands store, in ascending r (the hits of operand i
// are in its storage order), onto its running value — the additions a
// two-pointer merge of the two lists (simd.MergeDot) performs, so every
// entry has the merge dot's bits.
//
// An operand that stores all dim indices is full. It is neither pushed
// nor scanned, and every entry it takes part in is fullRows', which
// addresses it by index.
func gramRows(dim int, ptr, idx []int, val []float64, sel []int, dst *mat.Dense, lo, hi int) {
	k := len(sel)
	entries := 0
	for _, op := range sel[lo:hi] {
		if n := ptr[op+1] - ptr[op]; n != dim {
			entries += n
		}
	}
	if entries > math.MaxInt32 {
		panic(fmt.Sprintf("sparse: Gram rows [%d,%d) store %d entries, more than int32 links address", lo, hi, entries))
	}
	w := getGramWorkspace(dim, entries)
	w.prefetch(ptr, idx, val, sel[lo:hi], dim)
	// Only a scan of operands past the range reads the marker bits.
	mark := hi < k
	c, out := dst.C, dst.Data
	w.pushed, w.nhits = 0, 0
	full := 0
	for i := hi - 1; i >= lo; i-- {
		p0, p1 := ptr[sel[i]], ptr[sel[i]+1]
		if p1-p0 == dim {
			full++
			continue
		}
		var h int
		out[i*c+i], h = w.push(idx[p0:p1], val[p0:p1], dim, int32(i), out[i*c+i])
		w.nhits += h
		if mark { // push has checked the indices against dim
			for _, r := range idx[p0:p1] {
				w.has[r>>6] |= 1 << (uint(r) & 63)
			}
		}
	}
	w.walk(out, c)
	head, has, node, base := w.head, w.has, w.node, w.base
	for j := hi; j < k; j++ {
		q0, q1 := ptr[sel[j]], ptr[sel[j]+1]
		if q1-q0 == dim {
			full++
			continue
		}
		vj := val[q0:q1]
		for q, r := range idx[q0:q1] {
			if has[r>>6]&(1<<(uint(r)&63)) == 0 {
				continue
			}
			x := vj[q]
			for b := head[r] - 1 - base; b >= 0; {
				n := node[b]
				out[int(n.slot)*c+j] += n.v * x
				b = n.next
			}
		}
	}

	if full > 0 {
		fullRows(dim, ptr, idx, val, sel, dst, lo, hi)
	}

	// The heads this call stamped read as empty from the next call on.
	w.base += w.pushed
	if mark {
		for _, op := range sel[lo:hi] {
			if p0, p1 := ptr[op], ptr[op+1]; p1-p0 != dim {
				for _, r := range idx[p0:p1] {
					has[r>>6] = 0
				}
			}
		}
	}
	// Not deferred: a panic above (a malformed matrix) must not recycle a
	// half-scattered workspace.
	putGramWorkspace(w)
}

// prefetchBytes bounds prefetch: a batch's first 256 KiB of operand
// indices and values. A pass over more would evict, before the push
// reaches them, the lines it loaded first: past the budget the push
// streams its operands as it did without the pass. It is a constant,
// not an option, set from BenchmarkGram's cold batches.
const prefetchBytes = 256 << 10

// prefetch touches the operands sel (gramRows' own range) in push
// order, last first, loading one index word and one value word per
// 64-byte line, until prefetchBytes of them are loaded; full operands
// are skipped, as the push skips them. The loads do not depend on each
// other, so their cache misses overlap, where the push, which links
// each entry before it reads the next, would take them one line at a
// time. They are folded into w.sink so that the compiler keeps them. It
// is a frame of its own, like push and walk, so that gramRows holds no
// value more.
//
//go:noinline
func (w *gramWorkspace) prefetch(ptr, idx []int, val []float64, sel []int, dim int) {
	sink, budget := 0, prefetchBytes
	for i := len(sel) - 1; i >= 0 && budget > 0; i-- {
		p0, p1 := ptr[sel[i]], ptr[sel[i]+1]
		if p1-p0 == dim || p1 == p0 {
			continue
		}
		ri, vi := idx[p0:p1], val[p0:p1]
		for q := 0; q < len(ri); q += 8 {
			sink += ri[q] ^ int(math.Float64bits(vi[q]))
		}
		// The last line, which the stride can step over.
		sink += ri[len(ri)-1] ^ int(math.Float64bits(vi[len(vi)-1]))
		budget -= 16 * len(ri)
	}
	w.sink += sink
}

// push pushes the entries (ri, vi) of operand slot onto their lists
// and records the hits from w.hits[w.nhits] on; it returns d plus the
// squares of the values and the number of hits. It is gramRows' push
// pass for one operand, a call of its own that reads the workspace only
// before its loop, so that the loop's state fits in registers: entry q
// becomes node a+q, stamped base1+a+q in its head, and a head stamped
// by an earlier call (≤ base) turns into the end of list −1 without a
// branch.
func (w *gramWorkspace) push(ri []int, vi []float64, dim int, slot int32, d float64) (float64, int) {
	a, n := w.pushed, len(ri)
	w.pushed = a + int32(n)
	head, base1 := w.head[:dim], w.base+1
	node, hits, vi := w.node[a:int(a)+n], w.hits[w.nhits:w.nhits+n], vi[:n]
	h := 0
	for q, r := range ri {
		if uint(r) >= uint(len(head)) {
			panic(fmt.Sprintf("sparse: Gram index %d outside [0, %d)", r, dim))
		}
		x := vi[q]
		d += x * x
		below := head[r] - base1
		below |= below >> 31 // stamped before this call: no list
		node[q] = gramNode{x, below, slot}
		at := a + int32(q)
		head[r] = at + base1
		hits[h] = at
		h += int(uint32(^below) >> 31) // below ≥ 0: a list was there
	}
	return d, h
}

// walk is gramRows' walk pass: it follows each hit's link and adds
// x·v to row slot(hit) of out (c columns) at column slot(v). It is a
// frame of its own, like push, and not inlined: inside gramRows, which
// holds many values across its loops, the hit index would spill, and
// every hit would store and reload it.
//
//go:noinline
func (w *gramWorkspace) walk(out []float64, c int) {
	node := w.node
	for _, h := range w.hits[:w.nhits] {
		e := node[h]
		row := out[int(e.slot)*c : int(e.slot)*c+c]
		for b := e.next; b >= 0; {
			n := node[b]
			row[n.slot] += e.v * n.v
			b = n.next
		}
	}
}

// fullRows continues the entries (i, j ≥ i) of rows [lo, hi) in which
// operand i or operand j is full: it stores all dim indices, so, its
// indices strictly increasing, its entry at index r is its value r, and
// the pair's merge is the gather of the other operand's entries into the
// full one's values, in ascending index order. A full diagonal is the
// sum of its squares.
func fullRows(dim int, ptr, idx []int, val []float64, sel []int, dst *mat.Dense, lo, hi int) {
	c, out := dst.C, dst.Data
	for i := lo; i < hi; i++ {
		p0, p1 := ptr[sel[i]], ptr[sel[i]+1]
		ri, vi := idx[p0:p1], val[p0:p1]
		row := out[i*c : i*c+c]
		fi := p1-p0 == dim
		if fi {
			row[i] = fullDot(row[i], vi, vi)
		}
		for j := i + 1; j < len(sel); j++ {
			q0, q1 := ptr[sel[j]], ptr[sel[j]+1]
			switch {
			case fi && q1-q0 == dim:
				row[j] = fullDot(row[j], vi, val[q0:q1])
			case fi:
				row[j] = gatherDot(row[j], val[q0:q1], idx[q0:q1], vi)
			case q1-q0 == dim:
				row[j] = gatherDot(row[j], vi, ri, val[q0:q1])
			}
		}
	}
}
