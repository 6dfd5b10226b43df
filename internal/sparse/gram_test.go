package sparse

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"

	"saco/internal/mat"
	rt "saco/internal/runtime"
	"saco/internal/simd"
)

// The pairwise definition the Gram kernel replaced, kept
// as the test oracle: entry (i, j ≥ i) continues dst(i,j) with one
// two-pointer merge dot of operands sel[i] and sel[j].
func oracleGramAcc(ptr, idx []int, val []float64, sel []int, dst *mat.Dense) {
	for i := range sel {
		p0, p1 := ptr[sel[i]], ptr[sel[i]+1]
		for j := i; j < len(sel); j++ {
			q0, q1 := ptr[sel[j]], ptr[sel[j]+1]
			dst.Set(i, j, simd.MergeDot(dst.At(i, j), idx[p0:p1], val[p0:p1], idx[q0:q1], val[q0:q1]))
		}
	}
}

// oracleGram is the Gram as the kernels store it: the upper triangle
// from +0 accumulators, the strict lower triangle +0. diffBits compares
// every entry, so a kernel that wrote below the diagonal — a mirror, a
// stale value, a −0 — fails against it.
func oracleGram(ptr, idx []int, val []float64, sel []int) *mat.Dense {
	dst := mat.NewDense(len(sel), len(sel))
	oracleGramAcc(ptr, idx, val, sel, dst)
	return dst
}

// mirrored returns the full matrix whose upper triangle g holds, for
// the oracles that read both halves (a dense product, a Rayleigh
// quotient).
func mirrored(g *mat.Dense) *mat.Dense {
	s := g.Clone()
	for i := 0; i < s.R; i++ {
		for j := 0; j < i; j++ {
			s.Set(i, j, s.At(j, i))
		}
	}
	return s
}

// lowerIsPositiveZero fails unless every strict-lower entry of g is +0
// by bit pattern.
func lowerIsPositiveZero(t *testing.T, name string, g *mat.Dense) {
	t.Helper()
	for i := 0; i < g.R; i++ {
		for j := 0; j < i; j++ {
			if b := math.Float64bits(g.At(i, j)); b != 0 {
				t.Fatalf("%s: lower entry (%d,%d) = %x (%v), want +0", name, i, j, b, g.At(i, j))
			}
		}
	}
}

// diffBits compares two matrices bit for bit, any NaN matching any NaN
// (payload propagation is not part of the contract; the sign of zero
// is), and describes the first difference, "" when there is none.
func diffBits(got, want *mat.Dense) string {
	if got.R != want.R || got.C != want.C {
		return fmt.Sprintf("shape %dx%d, want %dx%d", got.R, got.C, want.R, want.C)
	}
	for i, g := range got.Data {
		w := want.Data[i]
		if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
			return fmt.Sprintf("entry (%d,%d) = %x (%v), want %x (%v)", i/got.C, i%got.C,
				math.Float64bits(g), g, math.Float64bits(w), w)
		}
	}
	return ""
}

func sameBits(t *testing.T, name string, got, want *mat.Dense) {
	t.Helper()
	if d := diffBits(got, want); d != "" {
		t.Fatalf("%s: %s", name, d)
	}
}

var gramSpecials = []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 5e-324, -1e308, 1e308}

// spikyCSC is a random m×n CSC whose stored values are, with
// probability special, overwritten from gramSpecials: stored explicit
// zeros, −0, ±Inf, NaN, a denormal and values whose products overflow.
func spikyCSC(rng *rand.Rand, m, n int, density, special float64) *CSC {
	a := randCSR(rng, m, n, density).ScatterToCSC()
	for p := range a.Val {
		if rng.Float64() < special {
			a.Val[p] = gramSpecials[rng.Intn(len(gramSpecials))]
		}
	}
	return a
}

// fillColumns returns a copy of a in which each column, with
// probability pFull, stores every row (full: the Gram addresses it by
// index) and otherwise, with probability pNear, every row but one or
// every other row (the longest and a half-length list that stay
// sparse). Rows a filled column did not store get values from
// gramSpecials with probability special, N(0,1) otherwise.
func fillColumns(rng *rand.Rand, a *CSC, pFull, pNear, special float64) *CSC {
	b := &CSC{M: a.M, N: a.N, ColPtr: []int{0}}
	for j := 0; j < a.N; j++ {
		vals := make([]float64, a.M)
		stored := make([]bool, a.M)
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			vals[a.RowIdx[p]], stored[a.RowIdx[p]] = a.Val[p], true
		}
		keep := func(r int) bool { return stored[r] }
		switch u := rng.Float64(); {
		case u < pFull:
			keep = func(int) bool { return true }
		case u < pFull+pNear/2:
			skip := rng.Intn(a.M)
			keep = func(r int) bool { return r != skip }
		case u < pFull+pNear:
			keep = func(r int) bool { return r%2 == j%2 }
		}
		for r := 0; r < a.M; r++ {
			if !keep(r) {
				continue
			}
			if !stored[r] {
				vals[r] = rng.NormFloat64()
				if rng.Float64() < special {
					vals[r] = gramSpecials[rng.Intn(len(gramSpecials))]
				}
			}
			b.RowIdx = append(b.RowIdx, r)
			b.Val = append(b.Val, vals[r])
		}
		b.ColPtr = append(b.ColPtr, len(b.Val))
	}
	return b
}

// asRows reads a CSC's three arrays as the CSR of its transpose: the
// same operands, sampled as rows.
func asRows(a *CSC) *CSR {
	return &CSR{M: a.N, N: a.M, RowPtr: a.ColPtr, ColIdx: a.RowIdx, Val: a.Val}
}

// splitRows cuts a into the consecutive row blocks [bounds[b],
// bounds[b+1]), each with its rows renumbered from zero — what the
// streamed column view hands ColGramAcc shard by shard.
func splitRows(a *CSC, bounds []int) []*CSC {
	var blocks []*CSC
	for b := 0; b+1 < len(bounds); b++ {
		lo, hi := bounds[b], bounds[b+1]
		blk := &CSC{M: hi - lo, N: a.N, ColPtr: make([]int, 1, a.N+1)}
		for j := 0; j < a.N; j++ {
			for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
				if r := a.RowIdx[p]; r >= lo && r < hi {
					blk.RowIdx = append(blk.RowIdx, r-lo)
					blk.Val = append(blk.Val, a.Val[p])
				}
			}
			blk.ColPtr = append(blk.ColPtr, len(blk.Val))
		}
		blocks = append(blocks, blk)
	}
	return blocks
}

// blockGram is Σ_blocks ColGramAcc from a zeroed dst.
func blockGram(blocks []*CSC, cols []int) *mat.Dense {
	dst := mat.NewDense(len(cols), len(cols))
	for _, blk := range blocks {
		blk.ColGramAcc(cols, dst)
	}
	return dst
}

// sampleWithRepeats draws k operand ids from [0, n), repeats allowed —
// an SA batch concatenates s independently sampled blocks.
func sampleWithRepeats(rng *rand.Rand, n, k int) []int {
	sel := make([]int, k)
	for i := range sel {
		sel[i] = rng.Intn(n)
	}
	return sel
}

// forkedBatch sizes a case past the work rule at w executors, so that
// a w-worker Gram of it forks, at a cost linear in the work the rule
// asks for. It returns a with rows appended and two columns: an empty
// one, and one that stores every row, old and new, so it is full — the
// kernel addresses it by index, and its entries are the work the rule
// counts. The batch spreads sel's operands evenly over at least 2w
// slots and fills the rest with the full column (once, mid-batch) and
// the empty one. So every worker runs a range, all but the first start
// past 0, and, given as many case operands as workers, each range holds
// some of them and scans those past it through the marker bits. The
// case's operands store no new row, so their matches are the case's.
func forkedBatch(a *CSC, sel []int, w int) (*CSC, []int) {
	// The least dim whose full column alone passes the rule: the rule is
	// monotone in the work, so double past it and bisect back.
	lo, hi := a.M, a.M+1
	for rt.Width(w, hi) < w {
		lo, hi = hi, 2*hi
	}
	for lo+1 < hi {
		if mid := (lo + hi) / 2; rt.Width(w, mid) < w {
			lo = mid
		} else {
			hi = mid
		}
	}
	nnz := len(a.Val)
	b := &CSC{M: hi, N: a.N + 2,
		ColPtr: append(append([]int(nil), a.ColPtr...), nnz, nnz+hi),
		RowIdx: make([]int, nnz+hi),
		Val:    make([]float64, nnz+hi)}
	copy(b.RowIdx, a.RowIdx)
	copy(b.Val, a.Val)
	for r := range hi {
		b.RowIdx[nnz+r], b.Val[nnz+r] = r, 1+float64(r%7)/8
	}
	empty, full := a.N, a.N+1
	k := max(len(sel)+1, 2*w)
	batch := make([]int, k)
	for i := range batch {
		batch[i] = -1
	}
	for i, op := range sel {
		batch[(2*i+1)*k/(2*len(sel))] = op
	}
	mid := k / 2
	for batch[mid] >= 0 {
		mid = (mid + 1) % k
	}
	batch[mid] = full
	for i, op := range batch {
		if op < 0 {
			batch[i] = empty
		}
	}
	return b, batch
}

// mustFork fails unless the work rule splits a Gram of the operands sel
// (pointers ptr) w ways: the data, not a flag, makes the kernel fork.
func mustFork(t *testing.T, name string, w int, ptr, sel []int) {
	t.Helper()
	if got := forkWidth(w, ptr, sel, len(sel)*(len(sel)+1)/2); got != w {
		t.Fatalf("%s: the work rule grants %d executors to %d operands; the batch must fork %d ways", name, got, len(sel), w)
	}
}

// TestGramMatchesPairwiseMerge is the bitwise contract of the Gram
// kernel against the definition it replaced, over random matrices with
// special values, repeated operands, and every worker count; the
// multi-worker legs run on forkedBatch's padding, so they fork. From the
// 61st trial on, columns are also full (some, or all of them), one row
// short of full, or half full, so full operands meet sparse ones inside
// a worker's range and past it, and repeat.
func TestGramMatchesPairwiseMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 120; trial++ {
		m, n := 1+rng.Intn(200), 1+rng.Intn(24)
		special := []float64{0, 0.05, 0.5}[trial%3]
		a0 := spikyCSC(rng, m, n, 0.02+0.4*rng.Float64(), special)
		if trial >= 60 {
			pFull := []float64{0.3, 0.6, 1}[trial%3]
			a0 = fillColumns(rng, a0, pFull, 0.3, special)
		}
		sel0 := sampleWithRepeats(rng, n, rng.Intn(20))
		for _, w := range []int{1, 2, 3, 8} {
			if w > 1 && testing.Short() && trial%2 == 1 {
				continue // the race job: a forked Gram is 2¹⁴ entries a worker
			}
			name := fmt.Sprintf("trial %d workers %d", trial, w)
			a, sel := a0, sel0
			if w > 1 {
				a, sel = forkedBatch(a0, sel0, w)
				mustFork(t, name, w, a.ColPtr, sel)
			}
			k := len(sel)
			want := oracleGram(a.ColPtr, a.RowIdx, a.Val, sel)
			got := mat.NewDense(k, k)
			for i := range got.Data {
				got.Data[i] = rng.NormFloat64() // ColGram/RowGram overwrite
			}
			a.WithKernelWorkers(w).(*CSC).ColGram(sel, got)
			sameBits(t, name+" ColGram", got, want)
			asRows(a).WithKernelWorkers(w).(*CSR).RowGram(sel, got)
			sameBits(t, name+" RowGram", got, want)

			// ColGramAcc continues whatever the upper triangle holds and
			// leaves the strict lower triangle alone.
			acc, wantAcc := mat.NewDense(k, k), mat.NewDense(k, k)
			for i := range acc.Data {
				acc.Data[i] = rng.NormFloat64()
			}
			copy(wantAcc.Data, acc.Data)
			a.WithKernelWorkers(w).(*CSC).ColGramAcc(sel, acc)
			oracleGramAcc(a.ColPtr, a.RowIdx, a.Val, sel, wantAcc)
			sameBits(t, name+" ColGramAcc", acc, wantAcc)
		}
	}
}

// TestColGramAccRowBlocks asserts the streamed identity Σ_blocks
// ColGramAcc from zero == in-memory ColGram, bit for bit and lower
// triangle included, with the row space cut at every boundary and into
// three and many blocks.
func TestColGramAccRowBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	const m, n = 70, 9 // 70 rows: the cut crosses a 64-bit marker word
	a := spikyCSC(rng, m, n, 0.3, 0.1)
	cols := []int{4, 0, 8, 4, 2, 7, 0}
	want := mat.NewDense(len(cols), len(cols))
	a.ColGram(cols, want)
	sameBits(t, "in-memory vs oracle", want, oracleGram(a.ColPtr, a.RowIdx, a.Val, cols))
	for cut := 0; cut <= m; cut++ {
		got := blockGram(splitRows(a, []int{0, cut, m}), cols)
		sameBits(t, fmt.Sprintf("cut at row %d", cut), got, want)
	}
	for cut := 0; cut+1 <= m; cut++ {
		got := blockGram(splitRows(a, []int{0, cut, cut + 1, m}), cols)
		sameBits(t, fmt.Sprintf("single-row block at %d", cut), got, want)
	}
	single := make([]int, m+1)
	for i := range single {
		single[i] = i
	}
	sameBits(t, "one block per row", blockGram(splitRows(a, single), cols), want)
}

// drainGramFree empties the free list and returns what it held.
func drainGramFree() []*gramWorkspace {
	var ws []*gramWorkspace
	for {
		select {
		case w := <-gramFree:
			ws = append(ws, w)
		default:
			return ws
		}
	}
}

// TestGramWorkspaceBoundaries drives recycled workspaces through the
// edges of their index arithmetic and of the walk: no operands, one
// operand, empty operands, repeated operands, the longest possible
// index list, one list of length k−1 (the deepest walk), entries on
// both sides of every marker word boundary, matrices of shrinking and
// growing dimension, and batches of shrinking size in one sequence.
// The table runs sequentially and then, sized past the work rule by
// forkedBatch, on 2- and 3-worker views, where each worker scans the
// operands past its own range through the marker bits. Each leg puts
// as many new workspaces as workers on the free list, and every call
// must take every one of them: each worker ran, on one of its own.
// After every call the result matches the oracle and the workspaces
// are back on the free list with every head entry at most the
// workspace's base (stamped by a finished call, so read as empty) and
// every marker bit clear.
func TestGramWorkspaceBoundaries(t *testing.T) {
	// build makes a one-column-per-argument CSC over dim rows from
	// explicit row lists; values are distinct so a stale entry that
	// leaked into a list would change the result.
	build := func(dim int, cols ...[]int) *CSC {
		a := &CSC{M: dim, N: len(cols), ColPtr: []int{0}}
		for _, rows := range cols {
			for _, r := range rows {
				a.RowIdx = append(a.RowIdx, r)
				a.Val = append(a.Val, 1+float64(len(a.Val)))
			}
			a.ColPtr = append(a.ColPtr, len(a.Val))
		}
		return a
	}
	all := func(n int) []int {
		rows := make([]int, n)
		for i := range rows {
			rows[i] = i
		}
		return rows
	}
	evens := func(n int) []int {
		var rows []int
		for r := 0; r < n; r += 2 {
			rows = append(rows, r)
		}
		return rows
	}
	// k operands that all store index 64 (and a few others), so one
	// list grows to k−1 nodes before the last push walks it.
	deep := make([][]int, 128)
	for j := range deep {
		deep[j] = []int{64}
		if j%3 == 0 {
			deep[j] = []int{j % 64, 64, 65 + j}
		}
	}
	wide := spikyCSC(rand.New(rand.NewSource(66)), 300, 160, 0.3, 0)
	batch := rand.New(rand.NewSource(67))
	cases := []struct {
		name string
		a    *CSC
		sel  []int
	}{
		{"large first: sizes the workspace", build(1000, all(1000), []int{0, 63, 64, 127, 128, 999}), []int{0, 1, 0, 1}},
		{"no operands", build(8, []int{1, 2}), []int{}},
		{"one operand", build(8, []int{1, 2}), []int{0}},
		{"one empty operand", build(8, nil), []int{0}},
		{"empty among full", build(8, nil, all(8), nil, []int{7}), []int{0, 1, 2, 3, 1, 0}},
		{"empty operand inside a range", build(8, all(8), nil, []int{1, 5}, []int{5}),
			[]int{0, 2, 3, 0, 2, 1, 1, 3, 1}},
		{"same operand three times", build(8, []int{0, 3, 7}), []int{0, 0, 0}},
		{"same operand four times", build(8, []int{0, 3, 7}), []int{0, 0, 0, 0}},
		{"one index stored by every operand", build(8, []int{3}, []int{0, 3}, []int{3, 7}, []int{2, 3, 4}, []int{3}),
			[]int{0, 1, 2, 3, 4, 0, 1, 2, 3, 4, 4}},
		{"one operand at both ends", build(70, []int{0, 64, 69}, []int{64}, []int{1, 69}, nil), []int{0, 1, 2, 3, 1, 2, 0}},
		{"zero-row matrix", build(0, nil, nil), []int{0, 1, 1, 0}},
		{"dim 1", build(1, []int{0}, nil), []int{0, 1, 0, 0}},
		{"dim 63: last bit below a word edge", build(63, []int{0, 62}, []int{62}), []int{0, 1, 1, 0}},
		{"dim 64: last bit of word 0", build(64, []int{0, 63}, []int{63}), []int{0, 1, 0, 1}},
		{"dim 65: first bit of word 1", build(65, []int{63, 64}, []int{0, 64}, []int{63}), []int{0, 1, 2, 1}},
		{"dim 128/129 edge", build(129, []int{127, 128}, []int{64, 127}, []int{128}), []int{2, 1, 0, 2}},
		{"shrunk far below the workspace", build(3, []int{0, 2}, []int{1}), []int{0, 1, 0, 1}},
		{"grown past the workspace", build(5000, all(5000), []int{999, 1000, 4999}), []int{1, 0, 1, 0}},
		{"shrunk again after growth", build(70, []int{5, 69}, []int{69}), []int{0, 1, 1}},
		{"every operand stores one index: a k−1 walk", build(200, deep...), all(128)},
		{"one column 128 times", build(8, []int{0, 3, 7}), make([]int, 128)},
		{"the same column twice", build(70, []int{1, 64}, []int{64, 69}, []int{0, 1}), []int{2, 0, 1, 0, 2}},
		{"empty operands between full ones", build(70, []int{0, 64}, nil, []int{64}, nil, nil, []int{0, 63, 64}),
			[]int{0, 1, 2, 3, 4, 5, 1, 0, 4, 5}},
		{"k=128 grows node and hits", wide, sampleWithRepeats(batch, wide.N, 128)},
		{"k=8 after k=128", wide, sampleWithRepeats(batch, wide.N, 8)},
		{"k=1 after k=8", wide, sampleWithRepeats(batch, wide.N, 1)},
		{"dim 1, full and empty", build(1, []int{0}, nil), []int{0, 1, 0, 0, 1}},
		{"a single full operand", build(70, all(70)), []int{0}},
		{"all operands full", build(70, all(70), all(70), all(70)), []int{2, 0, 1, 0, 2, 1}},
		{"full, one short and half full", build(70, all(70), all(70)[1:], evens(70), []int{5, 64}),
			[]int{0, 1, 2, 3, 0, 3, 2, 1}},
		{"full operands past every range", build(70, []int{5, 64}, []int{0, 64}, all(70)),
			[]int{0, 1, 0, 1, 2, 2, 1, 2}},
		{"full operands first, sparse past them", build(70, all(70), []int{5, 64}, []int{0, 64}),
			[]int{0, 0, 1, 2, 1, 2, 0}},
	}
	for _, workers := range []int{1, 2, 3} {
		drainGramFree() // start from workspaces this test owns
		seeded := map[*gramWorkspace]bool{}
		for range workers {
			w := new(gramWorkspace)
			seeded[w] = true
			putGramWorkspace(w)
		}
		for _, tc := range cases {
			a, sel := tc.a, tc.sel
			if workers > 1 {
				a, sel = forkedBatch(a, sel, workers)
				mustFork(t, tc.name, workers, a.ColPtr, sel)
			}
			want := oracleGram(a.ColPtr, a.RowIdx, a.Val, sel)
			for _, call := range []struct {
				name string
				gram func(sel []int, dst *mat.Dense)
			}{
				{"ColGram", a.WithKernelWorkers(workers).(*CSC).ColGram},
				{"RowGram", asRows(a).WithKernelWorkers(workers).(*CSR).RowGram},
			} {
				name := fmt.Sprintf("%s, %d workers, %s", tc.name, workers, call.name)
				// A call resets pushed in every workspace it takes, so a
				// workspace still at −1 afterwards sat the call out.
				for w := range seeded {
					w.pushed = -1
				}
				got := mat.NewDense(len(sel), len(sel))
				call.gram(sel, got)
				sameBits(t, name, got, want)

				ws := drainGramFree()
				if len(ws) != workers {
					t.Fatalf("%s: %d workspaces on the free list, want the %d seeded", name, len(ws), workers)
				}
				if workers == 1 && (len(ws[0].head) < a.M || 64*len(ws[0].has) < a.M) {
					t.Fatalf("%s: workspace covers %d heads / %d marker bits, matrix has %d indices",
						name, len(ws[0].head), 64*len(ws[0].has), a.M)
				}
				for _, w := range ws {
					if !seeded[w] {
						t.Fatalf("%s: a workspace that was not seeded came back", name)
					}
					if w.pushed < 0 {
						t.Fatalf("%s: a seeded workspace sat the call out; the Gram did not fork %d ways", name, workers)
					}
					checkGramStamps(t, name, w)
					putGramWorkspace(w)
				}
			}
		}
	}
}

// checkGramStamps fails unless every head of w reads as empty (≤ its
// base) and every marker bit is clear: the state between calls.
func checkGramStamps(t *testing.T, name string, w *gramWorkspace) {
	t.Helper()
	for r, h := range w.head {
		if h > w.base {
			t.Fatalf("%s: head[%d] = %d after the call, want at most base %d", name, r, h, w.base)
		}
	}
	for i, word := range w.has {
		if word != 0 {
			t.Fatalf("%s: marker word %d = %#x after the call, want all clear", name, i, word)
		}
	}
}

// stampedGramWorkspace is a workspace over [0, dim) with room for
// entries nodes whose base is base and whose every head is base: the
// latest stamp an earlier call can leave, so each head reads as empty
// only as long as base is not reset without clearing it.
func stampedGramWorkspace(dim, entries int, base int32) *gramWorkspace {
	w := &gramWorkspace{
		head: make([]int32, dim),
		has:  make([]uint64, (dim+63)/64),
		node: make([]gramNode, entries),
		hits: make([]int32, entries),
		base: base,
	}
	for r := range w.head {
		w.head[r] = base
	}
	return w
}

// TestGramStampWrap drives the one path that clears list heads: a
// workspace whose base is so close to math.MaxInt32 that a call's
// stamps would pass it clears its heads and restarts at base 0. The
// free list is seeded with one stamped workspace per worker, with no
// stamps left, one, one short of, exactly and one more than the batch's
// entries, and two ColGram and two RowGram calls follow. At 1, 2 and 3
// workers every result must match oracleGram bit for bit, every
// workspace must be back with its heads ≤ base and its marker bits
// clear, and a reset must have happened — on every workspace at the
// first call when fewer than two stamps are left. Full operands sit
// among the sparse ones on both sides of each worker's range, so the
// forked calls also address them by index next to the marker bits.
func TestGramStampWrap(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	a := fillColumns(rng, spikyCSC(rng, 2000, 160, 0.2, 0.02), 0.3, 0.3, 0.02)
	rows := asRows(a)
	sel := sampleWithRepeats(rng, a.N, 128)
	want := oracleGram(a.ColPtr, a.RowIdx, a.Val, sel)
	entries, full := 0, 0
	for _, j := range sel {
		if n := a.ColNNZ(j); n != a.M {
			entries += n // full operands are not pushed
		} else {
			full++
		}
	}
	if full == 0 || full == len(sel) {
		t.Fatalf("%d of %d operands full, want a mix", full, len(sel))
	}
	for _, workers := range []int{1, 2, 3} {
		calls := []struct {
			name string
			gram func(sel []int, dst *mat.Dense)
		}{
			{"ColGram", a.WithKernelWorkers(workers).(*CSC).ColGram},
			{"ColGram again", a.WithKernelWorkers(workers).(*CSC).ColGram},
			{"RowGram", rows.WithKernelWorkers(workers).(*CSR).RowGram},
			{"RowGram again", rows.WithKernelWorkers(workers).(*CSR).RowGram},
		}
		for _, room := range []int{0, 1, entries - 1, entries, entries + 1} {
			drainGramFree()
			seed := int32(math.MaxInt32 - room)
			last := map[*gramWorkspace]int32{}
			for range workers {
				w := stampedGramWorkspace(a.M, entries, seed)
				last[w] = seed
				putGramWorkspace(w)
			}
			resets := 0
			for c, call := range calls {
				name := fmt.Sprintf("%d workers, %d stamps left, %s", workers, room, call.name)
				got := mat.NewDense(len(sel), len(sel))
				call.gram(sel, got)
				sameBits(t, name, got, want)
				ws := drainGramFree()
				if len(ws) != workers {
					t.Fatalf("%s: %d workspaces on the free list, want the %d seeded", name, len(ws), workers)
				}
				for _, w := range ws {
					prev, ok := last[w]
					if !ok {
						t.Fatalf("%s: a workspace that was not seeded came back", name)
					}
					if w.base < prev {
						resets++
					}
					last[w] = w.base
					checkGramStamps(t, name, w)
					putGramWorkspace(w)
				}
				if c == 0 && room < 2 && resets != workers {
					t.Fatalf("%s: %d of %d workspaces reset their stamps, want all", name, resets, workers)
				}
			}
			if resets == 0 {
				t.Fatalf("%d workers, %d stamps left: no workspace reset its stamps over %d calls", workers, room, len(calls))
			}
		}
	}
}

// TestGramPanicDoesNotRecycleDirtyWorkspace: a matrix built by struct
// literal can carry an index beyond its dimension. The kernel panics on
// it whatever the free list holds — also when a recycled workspace is
// long enough to take the index — and the half-scattered workspace must
// not reach the free list, where it would hand the next caller stale
// lists and marker bits.
func TestGramPanicDoesNotRecycleDirtyWorkspace(t *testing.T) {
	good := &CSC{M: 4, N: 1, ColPtr: []int{0, 2}, RowIdx: []int{0, 3}, Val: []float64{1, 2}}
	bad := &CSC{M: 4, N: 2, ColPtr: []int{0, 2, 3}, RowIdx: []int{1, 4000, 4000}, Val: []float64{1, 2, 3}}
	big := spikyCSC(rand.New(rand.NewSource(65)), 8000, 3, 0.01, 0)
	for _, history := range []struct {
		name  string
		setup func()
	}{
		{"small workspace recycled", func() { good.ColGram([]int{0}, mat.NewDense(1, 1)) }},
		{"8000-index workspace recycled", func() { big.ColGram([]int{0, 1, 2}, mat.NewDense(3, 3)) }},
	} {
		drainGramFree()
		history.setup() // one clean workspace on the list
		dst := mat.NewDense(2, 2)
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: ColGram accepted row index 4000 of a 4-row matrix, got %v", history.name, dst.Data)
				}
			}()
			bad.ColGram([]int{0, 1}, dst)
		}()
		if ws := drainGramFree(); len(ws) != 0 {
			t.Fatalf("%s: %d workspaces recycled after a panic mid-scatter, want 0", history.name, len(ws))
		}
		one := mat.NewDense(1, 1)
		good.ColGram([]int{0}, one)
		if one.At(0, 0) != 5 {
			t.Fatalf("%s: ColGram after the panic = %v, want 5", history.name, one.At(0, 0))
		}
	}
}

// TestGramEntryLimit: the workspace links are int32, so a batch whose
// operands store 2³¹ entries panics before it takes a workspace or
// scatters anything. The operand pointers alone decide; no index array
// of that size is needed.
func TestGramEntryLimit(t *testing.T) {
	drainGramFree()
	putGramWorkspace(getGramWorkspace(8, 8))
	ptr := []int{0, 1 << 30}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("gramAcc accepted 2^31 entries")
			}
		}()
		gramAcc(1, 8, ptr, nil, nil, []int{0, 0}, mat.NewDense(2, 2))
	}()
	if ws := drainGramFree(); len(ws) != 1 {
		t.Fatalf("%d workspaces on the free list after the refused batch, want the 1 it held", len(ws))
	}
}

// TestGramSharedMatrixConcurrent runs ColGram from 8 goroutines on one
// shared *CSC — library callers may solve on one matrix at once — while
// a 4-worker view of the same storage assembles its own Gram, and the
// same again by rows. The callers alternate batches of k = 8 and
// k = 128, so workspaces sized for either cycle through the free list;
// the 4-worker batch is sized past the work rule, so its Grams fork into
// four rt.Ranges workers, each scanning the operands past its range.
// Every result must match the oracle bit for bit; under -race this is
// the proof that no scratch hangs off the matrix.
func TestGramSharedMatrixConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	a := spikyCSC(rng, 500, 60, 0.1, 0.02)
	rounds := 200
	if testing.Short() {
		rounds = 20
	}
	const callers = 8
	type job struct {
		sel  []int
		want *mat.Dense
	}
	jobs := make([]job, callers+1)
	for g := range jobs {
		sel := sampleWithRepeats(rng, a.N, []int{8, 128}[g%2])
		if g == callers {
			for forkWidth(4, a.ColPtr, sel, len(sel)*(len(sel)+1)/2) < 4 {
				sel = append(sel, rng.Intn(a.N))
			}
			mustFork(t, "4-worker batch", 4, a.ColPtr, sel)
		}
		jobs[g] = job{sel, oracleGram(a.ColPtr, a.RowIdx, a.Val, sel)}
	}
	var wg sync.WaitGroup
	run := func(name string, jb job, gram func(sel []int, dst *mat.Dense)) {
		defer wg.Done()
		got := mat.NewDense(len(jb.sel), len(jb.sel))
		for r := 0; r < rounds; r++ {
			gram(jb.sel, got)
			if d := diffBits(got, jb.want); d != "" {
				t.Errorf("%s round %d: %s", name, r, d)
				return
			}
		}
	}
	rows := asRows(a)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		if g%2 == 0 {
			go run(fmt.Sprintf("ColGram caller %d", g), jobs[g], a.ColGram)
		} else {
			go run(fmt.Sprintf("RowGram caller %d", g), jobs[g], rows.RowGram)
		}
	}
	wg.Add(2)
	go run("4-worker ColGram", jobs[callers], a.WithKernelWorkers(4).(*CSC).ColGram)
	go run("4-worker RowGram", jobs[callers], rows.WithKernelWorkers(4).(*CSR).RowGram)
	wg.Wait()
}

// TestGramSteadyStateAllocatesNothing: after the first call has sized a
// workspace, sequential Gram calls of any shape allocate nothing — also
// across a GC cycle, which would empty a sync.Pool.
func TestGramSteadyStateAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	a := spikyCSC(rng, 300, 40, 0.1, 0)
	rows := asRows(a)
	small, big := sampleWithRepeats(rng, a.N, 8), sampleWithRepeats(rng, a.N, 32)
	gs, gb := mat.NewDense(8, 8), mat.NewDense(32, 32)
	if n := testing.AllocsPerRun(20, func() {
		runtime.GC()
		a.ColGram(small, gs)
		a.ColGramAcc(big, gb)
		rows.RowGram(big, gb)
	}); n != 0 {
		t.Fatalf("%v allocations per round of sequential Gram calls, want 0", n)
	}
}

// gramFuzzCase decodes fuzz bytes into a small CSC, an operand list with
// repeats and a row cut: byte 0 → columns (1–8, low 3 bits) and full
// columns (high 5 bits: column j stores every row when bit j mod 5 is
// set), byte 1 → rows (1–160, so markers span up to three words), byte
// 2 → operands (0–11), byte 3 → cut; then one byte per operand, then
// 9-byte entries (position byte + float64 bits) dealt to the columns
// round-robin, a later entry at an occupied (row, column) replacing the
// earlier one. A full column's rows that no entry set hold 1 + row/4.
func gramFuzzCase(data []byte) (a *CSC, sel []int, cut int) {
	hdr := make([]byte, 4)
	copy(hdr, data)
	n, m, k := 1+int(hdr[0])%8, 1+int(hdr[1])%160, int(hdr[2])%12
	fullMask := hdr[0] >> 3
	cut = int(hdr[3]) % (m + 1)
	data = data[min(len(data), 4):]
	sel = make([]int, k)
	for i := range sel {
		if i < len(data) {
			sel[i] = int(data[i]) % n
		}
	}
	data = data[min(len(data), k):]
	type entry struct {
		row int
		val float64
	}
	cols := make([][]entry, n)
	for j := range cols {
		if fullMask&(1<<(j%5)) == 0 {
			continue
		}
		for r := 0; r < m; r++ {
			cols[j] = append(cols[j], entry{r, 1 + float64(r)/4})
		}
	}
	for e := 0; 9*e+9 <= len(data) && e < 512; e++ {
		j, row := e%n, int(data[9*e])%m
		val := math.Float64frombits(binary.LittleEndian.Uint64(data[9*e+1:]))
		at := sort.Search(len(cols[j]), func(i int) bool { return cols[j][i].row >= row })
		if at < len(cols[j]) && cols[j][at].row == row {
			cols[j][at].val = val
			continue
		}
		cols[j] = append(cols[j], entry{})
		copy(cols[j][at+1:], cols[j][at:])
		cols[j][at] = entry{row, val}
	}
	a = &CSC{M: m, N: n, ColPtr: make([]int, 1, n+1)}
	for _, col := range cols {
		for _, e := range col {
			a.RowIdx = append(a.RowIdx, e.row)
			a.Val = append(a.Val, e.val)
		}
		a.ColPtr = append(a.ColPtr, len(a.Val))
	}
	return a, sel, cut
}

// FuzzGram holds ColGram, RowGram (sequential, and on 2- and 3-worker
// views of the case sized past the work rule by forkedBatch, so that
// they fork) and the two-block ColGramAcc sum to the pairwise-merge
// oracle on arbitrary sparsity patterns, full columns among them, and
// value bits — NaNs, infinities, denormals and −0 come free with
// byte-level mutation.
func FuzzGram(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 70, 5, 64, 0, 1, 2, 1, 0})
	entries := []byte{2, 129, 7, 65, 0, 1, 1, 0, 1, 0, 0}
	for e, v := range []float64{1.5, -2, 0, math.Copysign(0, -1), math.Inf(1), math.NaN(), 5e-324, 3, -1e308, 1e308, 0.25, 7} {
		entries = append(entries, byte(e*32)) // rows 0, 32, 64, … wrap mod 130
		entries = binary.LittleEndian.AppendUint64(entries, math.Float64bits(v))
	}
	f.Add(entries)
	// Every operand stores row 64, so its list is walked k−1 deep.
	deep := []byte{2, 69, 11, 64, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1}
	for e, v := range []float64{1.5, -2, 0.25, 3, math.Copysign(0, -1), 7} {
		deep = append(deep, []byte{64, 64, 64, 5, 69, 0}[e])
		deep = binary.LittleEndian.AppendUint64(deep, math.Float64bits(v))
	}
	f.Add(deep)
	// The same column twice in the batch, around another one.
	twice := []byte{1, 9, 4, 3, 1, 1, 0, 1}
	for e, v := range []float64{2, -1, 0.5, 4, 1e308, -3} {
		twice = append(twice, []byte{3, 3, 7, 9, 0, 7}[e])
		twice = binary.LittleEndian.AppendUint64(twice, math.Float64bits(v))
	}
	f.Add(twice)
	// Full columns: dim 1; a single full operand; every operand full;
	// full operands repeated, among sparse ones and past every worker's
	// range.
	f.Add([]byte{8 | 0, 0, 3, 1, 0, 0, 0})
	f.Add([]byte{8 | 0, 69, 1, 30, 0})
	f.Add([]byte{31<<3 | 3, 69, 9, 40, 3, 1, 0, 2, 3, 1, 0, 2, 3})
	mixed := []byte{(2|4)<<3 | 4, 69, 11, 35, 0, 1, 2, 3, 4, 0, 1, 2, 3, 4, 2}
	for e, v := range []float64{1.5, -2, 0.25, math.Copysign(0, -1), 7, math.NaN(), 3, math.Inf(1)} {
		mixed = append(mixed, []byte{64, 64, 64, 64, 5, 5, 68, 0}[e])
		mixed = binary.LittleEndian.AppendUint64(mixed, math.Float64bits(v))
	}
	f.Add(mixed)
	f.Fuzz(func(t *testing.T, data []byte) {
		a, sel, cut := gramFuzzCase(data)
		if _, err := NewCSC(a.M, a.N, a.ColPtr, a.RowIdx, a.Val); err != nil {
			t.Fatalf("decoder built an invalid CSC: %v", err)
		}
		want := oracleGram(a.ColPtr, a.RowIdx, a.Val, sel)
		for _, w := range []int{1, 2, 3} {
			aw, selw, wantw := a, sel, want
			if w > 1 {
				aw, selw = forkedBatch(a, sel, w)
				mustFork(t, fmt.Sprintf("%d workers", w), w, aw.ColPtr, selw)
				wantw = oracleGram(aw.ColPtr, aw.RowIdx, aw.Val, selw)
			}
			got := mat.NewDense(len(selw), len(selw))
			aw.WithKernelWorkers(w).(*CSC).ColGram(selw, got)
			sameBits(t, fmt.Sprintf("ColGram, %d workers", w), got, wantw)
			asRows(aw).WithKernelWorkers(w).(*CSR).RowGram(selw, got)
			sameBits(t, fmt.Sprintf("RowGram, %d workers", w), got, wantw)
		}
		sameBits(t, "ColGramAcc over two row blocks", blockGram(splitRows(a, []int{0, cut, a.M}), sel), want)
	})
}
