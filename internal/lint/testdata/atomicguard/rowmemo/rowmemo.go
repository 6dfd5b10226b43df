// Fixture for the sparse row-block memo rule, type-checked as
// saco/internal/sparse. This file is the guarded field's home
// (rowmemo.go): the memo pointer is loaded and installed atomically
// here and nowhere else.
package src

import (
	"sync/atomic"
	"unsafe"
)

type rowMemo struct{ built int }

type CSR struct {
	M, N int
	Val  []float64
	memo *rowMemo
}

func (a *CSR) memoSlot() *unsafe.Pointer { return (*unsafe.Pointer)(unsafe.Pointer(&a.memo)) }

func (a *CSR) loadMemo() *rowMemo {
	slot := a.memoSlot()
	if m := atomic.LoadPointer(slot); m != nil {
		return (*rowMemo)(m)
	}
	atomic.CompareAndSwapPointer(slot, nil, unsafe.Pointer(new(rowMemo)))
	return (*rowMemo)(atomic.LoadPointer(slot))
}

// The home package may store into its own arrays.
func (a *CSR) build() { a.Val[0] = 1 }
