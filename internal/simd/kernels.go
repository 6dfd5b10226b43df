package simd

// MergeDot returns acc + the dot product of two sparse vectors given as
// strictly increasing (index, value) pairs, via a sorted two-pointer
// merge. Package sparse defines its Gram entries by it (and assembles
// them without it: sparse/gram.go), and package serve's tests score
// requests against it.
func MergeDot(acc float64, ia []int, va []float64, ib []int, vb []float64) float64 {
	if len(va) < len(ia) || len(vb) < len(ib) {
		panic("simd: MergeDot index/value length mismatch")
	}
	p, q := 0, 0
	for p < len(ia) && q < len(ib) {
		switch cp, cq := ia[p], ib[q]; {
		case cp == cq:
			acc += va[p] * vb[q]
			p++
			q++
		case cp < cq:
			p++
		default:
			q++
		}
	}
	return acc
}

// Kernels is a compatibility shim for the repo benchmark, which names
// the kernels in its report header and times MergeDot through Active()
// (benchmarks/main.go, benchmarks/solve.go). The shim goes when the
// benchmark times MergeDot directly (ROADMAP item 2's refresh).
type Kernels struct{}

// Name returns "scalar": MergeDot is one pure-Go loop.
func (*Kernels) Name() string { return "scalar" }

// MergeDot forwards to the package-level MergeDot.
func (*Kernels) MergeDot(acc float64, ia []int, va []float64, ib []int, vb []float64) float64 {
	return MergeDot(acc, ia, va, ib, vb)
}

// Active returns the shim.
func Active() *Kernels { return &Kernels{} }
