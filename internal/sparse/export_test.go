package sparse

import "sync/atomic"

// The memo tests count conversions and read the held ranges through
// these, which reach the memo by its accessor rather than its field.

// MemoBuilds returns how many row blocks a's memo has built (0 before
// the first conversion).
func MemoBuilds(a *CSR) int {
	m := (*rowMemo)(atomic.LoadPointer(a.memoSlot()))
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.built
}

// HeldRanges returns the row ranges a's memo holds, in insertion order.
func HeldRanges(a *CSR) [][2]int {
	m := (*rowMemo)(atomic.LoadPointer(a.memoSlot()))
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	var held [][2]int
	for _, b := range m.blocks {
		held = append(held, [2]int{b.r0, b.r1})
	}
	return held
}
