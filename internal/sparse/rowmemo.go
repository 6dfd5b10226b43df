package sparse

import (
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"
)

// rowMemo holds the row blocks a CSR has converted to CSC, so a matrix
// partitioned the same way solve after solve is transposed once. The
// rule has no knob:
//
//   - a repeated range returns the block already built, the very bytes
//     the scatter produced;
//   - inserting a range evicts every held range it overlaps, so held
//     ranges never overlap and the memo never holds more than one
//     transpose's worth of nonzeros, whatever partitions it sees;
//   - each range has its own once, so ranks asking for different blocks
//     at the same time each convert theirs in parallel, and ranks asking
//     for the same block wait for one conversion.
//
// A block is keyed by its range and by the matrix it was built from
// (dims and the three slice headers), so a struct copy whose arrays or
// dims were reassigned misses. Element stores into a matrix's arrays
// would go unseen; the arrays are read-only once built (doc.go).
type rowMemo struct {
	mu     sync.Mutex
	blocks []*rowBlock
	// built counts the blocks ever inserted: one scatter each.
	built int
}

// rowBlock is one held range and the CSC built from it.
type rowBlock struct {
	r0, r1 int
	src    rowSource
	once   sync.Once
	csc    *CSC
}

// rowSource is the identity of the matrix a block was converted from.
// It keeps the slices themselves, so an array cannot be freed and its
// address reused while a block still names it.
type rowSource struct {
	m, n           int
	rowPtr, colIdx []int
	val            []float64
}

func (s *rowSource) same(t *rowSource) bool {
	return s.m == t.m && s.n == t.n &&
		sameSlice(s.rowPtr, t.rowPtr) && sameSlice(s.colIdx, t.colIdx) && sameSlice(s.val, t.val)
}

// sameSlice reports whether a and b are the same slice header.
func sameSlice[T any](a, b []T) bool {
	return len(a) == len(b) && cap(a) == cap(b) && unsafe.SliceData(a) == unsafe.SliceData(b)
}

// memoSlot is the memo field as an atomic pointer. The field is a plain
// pointer so that copying a CSR stays legal for vet; every access to it
// goes through here, so a lazy first conversion never races a view.
func (a *CSR) memoSlot() *unsafe.Pointer { return (*unsafe.Pointer)(unsafe.Pointer(&a.memo)) }

// loadMemo returns the matrix's memo, installing an empty one on first
// use.
func (a *CSR) loadMemo() *rowMemo {
	slot := a.memoSlot()
	if m := atomic.LoadPointer(slot); m != nil {
		return (*rowMemo)(m)
	}
	atomic.CompareAndSwapPointer(slot, nil, unsafe.Pointer(new(rowMemo)))
	return (*rowMemo)(atomic.LoadPointer(slot))
}

// view returns a shallow copy of the matrix with the given kernel
// worker count that shares its storage and its memo, if it has one yet:
// a view taken after a conversion hits the block the conversion built.
func (a *CSR) view(workers int) *CSR {
	return &CSR{M: a.M, N: a.N, RowPtr: a.RowPtr, ColIdx: a.ColIdx, Val: a.Val, workers: workers,
		memo: (*rowMemo)(atomic.LoadPointer(a.memoSlot()))}
}

// block returns the held block for rows [r0, r1) of a, or inserts an
// unbuilt one after evicting every held range it overlaps.
func (m *rowMemo) block(a *CSR, r0, r1 int) *rowBlock {
	src := rowSource{m: a.M, n: a.N, rowPtr: a.RowPtr, colIdx: a.ColIdx, val: a.Val}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, b := range m.blocks {
		if b.r0 == r0 && b.r1 == r1 && b.src.same(&src) {
			return b
		}
	}
	m.blocks = slices.DeleteFunc(m.blocks, func(b *rowBlock) bool { return b.r0 < r1 && r0 < b.r1 })
	b := &rowBlock{r0: r0, r1: r1, src: src}
	m.blocks = append(m.blocks, b)
	m.built++
	return b
}
