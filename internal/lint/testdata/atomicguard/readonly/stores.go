// Fixture for atomicguard's read-only rule, type-checked as a package
// outside saco/internal/sparse: the arrays of a sparse.CSR or
// sparse.CSC are read-only once built, because a CSR hands the same
// converted row block to every caller.
package src

import "saco/internal/sparse"

func scale(a *sparse.CSR, s float64) {
	for k := range a.Val {
		a.Val[k] *= s // want "element store into read-only saco/internal/sparse.CSR.Val"
	}
}

func poke(a *sparse.CSR, c *sparse.CSC, v []float64) {
	a.ColIdx[0] = 1              // want "read-only saco/internal/sparse.CSR.ColIdx"
	a.RowPtr[1]++                // want "read-only saco/internal/sparse.CSR.RowPtr"
	c.RowIdx[0], c.Val[0] = 1, 2 // want "CSC.RowIdx" "CSC.Val"
	(c.ColPtr)[1]--              // want "read-only saco/internal/sparse.CSC.ColPtr"
	c.Val[1:][0] = 3             // want "read-only saco/internal/sparse.CSC.Val"
	copy(c.Val, v)               // want "read-only saco/internal/sparse.CSC.Val"
	copy(a.Val[2:4], v)          // want "read-only saco/internal/sparse.CSR.Val"
}

// Reads, copies out of the arrays and reassigning a whole field (a new
// array, which a CSR's memo tells apart) are legal.
func legal(a *sparse.CSR, c *sparse.CSC) float64 {
	dst := make([]float64, len(a.Val))
	copy(dst, a.Val)
	dst[0] = c.Val[0]
	a.Val = dst
	return a.Val[0] + float64(c.ColPtr[1])
}

// A type of this package with the same field names is not guarded.
type own struct{ Val []float64 }

func (o *own) set() { o.Val[0] = 1 }
