package mat

import "math"

// The eig tests are in the external mat_test package (they import
// datagen, which imports mat); these are the internals they reach.
var (
	SturmBelow     = sturmBelow
	LargestTridiag = largestTridiag
	Fence          = fence
	Bracket        = bracket
)

// ScaledTridiag returns the tridiagonal LargestEigSymScratch hands to
// largestTridiag for g, or ok = false when g has none (a NaN or ±Inf
// entry, or the zero matrix).
func ScaledTridiag(g *Dense) (d, e, e2 []float64, ok bool) {
	d, e, e2, _, _ = scaledTridiag(g, make([]float64, eigScratchLen(g.R)))
	return d, e, e2, d != nil
}

// BisectOracle is largestTridiag without its fence: every midpoint runs
// a Sturm count. visit, when not nil, sees each midpoint in order.
func BisectOracle(d, e, e2 []float64, visit func(mid float64)) float64 {
	const (
		eps       = 0x1p-52
		maxBisect = 64
	)
	n := len(d)
	lo, hi, tnorm := math.Inf(-1), math.Inf(-1), 0.0
	for i, di := range d {
		var r float64
		if i > 0 {
			r += math.Abs(e[i-1])
		}
		if i < n-1 {
			r += math.Abs(e[i])
		}
		lo, hi, tnorm = max(lo, di), max(hi, di+r), max(tnorm, math.Abs(di)+r)
	}
	for it := 0; it < maxBisect && hi-lo > 2*eps*tnorm; it++ {
		mid := lo + 0.5*(hi-lo)
		if mid <= lo || mid >= hi {
			break
		}
		if visit != nil {
			visit(mid)
		}
		if sturmBelow(d, e2, mid) == n {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}
