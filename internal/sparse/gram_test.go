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
	"saco/internal/simd"
)

// The pairwise definition the sparse-accumulator kernel replaced, kept
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

// oracleGram is the full Gram: +0 accumulators, then the mirror.
func oracleGram(ptr, idx []int, val []float64, sel []int) *mat.Dense {
	dst := mat.NewDense(len(sel), len(sel))
	oracleGramAcc(ptr, idx, val, sel, dst)
	dst.MirrorUpper()
	return dst
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
	a := randCSR(rng, m, n, density).ToCSC()
	for p := range a.Val {
		if rng.Float64() < special {
			a.Val[p] = gramSpecials[rng.Intn(len(gramSpecials))]
		}
	}
	return a
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

// blockGram is Σ_blocks ColGramAcc followed by one mirror.
func blockGram(blocks []*CSC, cols []int) *mat.Dense {
	dst := mat.NewDense(len(cols), len(cols))
	for _, blk := range blocks {
		blk.ColGramAcc(cols, dst)
	}
	dst.MirrorUpper()
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

// TestGramMatchesPairwiseMerge is the bitwise contract of the Gram
// kernel against the definition it replaced, over random matrices with
// special values, repeated operands, and every worker count.
func TestGramMatchesPairwiseMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 60; trial++ {
		m, n := 1+rng.Intn(200), 1+rng.Intn(24)
		special := []float64{0, 0.05, 0.5}[trial%3]
		a := spikyCSC(rng, m, n, 0.02+0.4*rng.Float64(), special)
		sel := sampleWithRepeats(rng, n, rng.Intn(20))
		k := len(sel)
		want := oracleGram(a.ColPtr, a.RowIdx, a.Val, sel)
		for _, w := range []int{1, 3, 8} {
			name := fmt.Sprintf("trial %d workers %d", trial, w)
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
// ColGramAcc + one MirrorUpper == in-memory ColGram, bit for bit, with
// the row space cut at every boundary and into three and many blocks.
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

// TestGramWorkspaceBoundaries drives one recycled workspace through the
// edges of its index arithmetic: no operands, one operand, empty
// operands, repeated operands, entries on both sides of every marker
// word boundary, and matrices of shrinking and growing dimension in one
// sequence. After every call the result matches the oracle and the
// workspace is back on the free list with every marker bit clear.
func TestGramWorkspaceBoundaries(t *testing.T) {
	// build makes a one-column-per-argument CSC over dim rows from
	// explicit row lists; values are distinct so a stale val entry that
	// leaked through the marker would change the result.
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
	cases := []struct {
		name string
		a    *CSC
		sel  []int
	}{
		{"large first: sizes the workspace", build(1000, all(1000), []int{0, 63, 64, 127, 128, 999}), []int{0, 1, 0}},
		{"no operands", build(8, []int{1, 2}), []int{}},
		{"one operand", build(8, []int{1, 2}), []int{0}},
		{"one empty operand", build(8, nil), []int{0}},
		{"empty among full", build(8, nil, all(8), nil, []int{7}), []int{0, 1, 2, 3, 1, 0}},
		{"same operand three times", build(8, []int{0, 3, 7}), []int{0, 0, 0}},
		{"zero-row matrix", build(0, nil, nil), []int{0, 1}},
		{"dim 1", build(1, []int{0}, nil), []int{0, 1, 0}},
		{"dim 63: last bit below a word edge", build(63, []int{0, 62}, []int{62}), []int{0, 1}},
		{"dim 64: last bit of word 0", build(64, []int{0, 63}, []int{63}), []int{0, 1}},
		{"dim 65: first bit of word 1", build(65, []int{63, 64}, []int{0, 64}, []int{63}), []int{0, 1, 2}},
		{"dim 128/129 edge", build(129, []int{127, 128}, []int{64, 127}, []int{128}), []int{2, 1, 0}},
		{"shrunk far below the workspace", build(3, []int{0, 2}, []int{1}), []int{0, 1, 0}},
		{"grown past the workspace", build(5000, all(5000), []int{999, 1000, 4999}), []int{1, 0, 1}},
		{"shrunk again after growth", build(70, []int{5, 69}, []int{69}), []int{0, 1}},
	}
	drainGramFree() // start from a workspace this test owns
	for _, tc := range cases {
		want := oracleGram(tc.a.ColPtr, tc.a.RowIdx, tc.a.Val, tc.sel)
		got := mat.NewDense(len(tc.sel), len(tc.sel))
		tc.a.ColGram(tc.sel, got)
		sameBits(t, tc.name+" ColGram", got, want)
		asRows(tc.a).RowGram(tc.sel, got)
		sameBits(t, tc.name+" RowGram", got, want)

		ws := drainGramFree()
		if len(ws) != 1 {
			t.Fatalf("%s: %d workspaces on the free list after sequential calls, want 1", tc.name, len(ws))
		}
		if len(ws[0].val) < tc.a.M || 64*len(ws[0].has) < tc.a.M {
			t.Fatalf("%s: workspace covers %d values / %d marker bits, matrix has %d indices",
				tc.name, len(ws[0].val), 64*len(ws[0].has), tc.a.M)
		}
		for i, word := range ws[0].has {
			if word != 0 {
				t.Fatalf("%s: marker word %d = %#x after the call, want all clear", tc.name, i, word)
			}
		}
		putGramWorkspace(ws[0])
	}
}

// TestGramPanicDoesNotRecycleDirtyWorkspace: a matrix built by struct
// literal can carry an index beyond its dimension; the kernel panics on
// it, and the half-scattered workspace must not reach the free list,
// where it would hand the next caller stale marker bits.
func TestGramPanicDoesNotRecycleDirtyWorkspace(t *testing.T) {
	drainGramFree()
	good := &CSC{M: 4, N: 1, ColPtr: []int{0, 2}, RowIdx: []int{0, 3}, Val: []float64{1, 2}}
	bad := &CSC{M: 4, N: 1, ColPtr: []int{0, 2}, RowIdx: []int{1, 4000}, Val: []float64{1, 2}}
	dst := mat.NewDense(1, 1)
	good.ColGram([]int{0}, dst) // one clean 4-index workspace on the list
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("ColGram accepted a row index beyond M")
			}
		}()
		bad.ColGram([]int{0}, dst)
	}()
	if ws := drainGramFree(); len(ws) != 0 {
		t.Fatalf("%d workspaces recycled after a panic mid-scatter, want 0", len(ws))
	}
	good.ColGram([]int{0}, dst)
	if dst.At(0, 0) != 5 {
		t.Fatalf("ColGram after the panic = %v, want 5", dst.At(0, 0))
	}
}

// TestGramSharedMatrixConcurrent runs ColGram from 8 goroutines on one
// shared *CSC — the HOGWILD access pattern of core/asyncstate.go — while
// a 4-worker view of the same storage assembles its own Gram, and the
// same again by rows. Every result must match the oracle bit for bit;
// under -race this is the proof that no scratch hangs off the matrix.
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
		sel := sampleWithRepeats(rng, a.N, 4+4*g)
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
// repeats and a row cut: byte 0 → columns (1–8), byte 1 → rows (1–160,
// so markers span up to three words), byte 2 → operands (0–11), byte 3 →
// cut; then one byte per operand, then 9-byte entries (position byte +
// float64 bits) dealt to the columns round-robin, a later entry at an
// occupied (row, column) replacing the earlier one.
func gramFuzzCase(data []byte) (a *CSC, sel []int, cut int) {
	hdr := make([]byte, 4)
	copy(hdr, data)
	n, m, k := 1+int(hdr[0])%8, 1+int(hdr[1])%160, int(hdr[2])%12
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

// FuzzGram holds ColGram, RowGram and the two-block ColGramAcc sum to
// the pairwise-merge oracle on arbitrary sparsity patterns and value
// bits — NaNs, infinities, denormals and −0 come free with byte-level
// mutation.
func FuzzGram(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 70, 5, 64, 0, 1, 2, 1, 0})
	entries := []byte{2, 129, 7, 65, 0, 1, 1, 0, 1, 0, 0}
	for e, v := range []float64{1.5, -2, 0, math.Copysign(0, -1), math.Inf(1), math.NaN(), 5e-324, 3, -1e308, 1e308, 0.25, 7} {
		entries = append(entries, byte(e*32)) // rows 0, 32, 64, … wrap mod 130
		entries = binary.LittleEndian.AppendUint64(entries, math.Float64bits(v))
	}
	f.Add(entries)
	f.Fuzz(func(t *testing.T, data []byte) {
		a, sel, cut := gramFuzzCase(data)
		if _, err := NewCSC(a.M, a.N, a.ColPtr, a.RowIdx, a.Val); err != nil {
			t.Fatalf("decoder built an invalid CSC: %v", err)
		}
		want := oracleGram(a.ColPtr, a.RowIdx, a.Val, sel)
		got := mat.NewDense(len(sel), len(sel))
		a.ColGram(sel, got)
		sameBits(t, "ColGram", got, want)
		asRows(a).RowGram(sel, got)
		sameBits(t, "RowGram", got, want)
		sameBits(t, "ColGramAcc over two row blocks", blockGram(splitRows(a, []int{0, cut, a.M}), sel), want)
	})
}
