package simd

// Kernels is a compatibility shim for the repo benchmark, which names
// the kernels in its report header and times MergeDot through Active()
// (benchmarks/main.go, benchmarks/solve.go). Every primitive is a plain
// function of this package; the shim goes when the benchmark times
// MergeDot directly (ROADMAP item 2's refresh).
type Kernels struct{}

// Name returns "scalar": every primitive is the reference loop.
func (*Kernels) Name() string { return "scalar" }

// MergeDot forwards to the package-level MergeDot.
func (*Kernels) MergeDot(acc float64, ia []int, va []float64, ib []int, vb []float64) float64 {
	return MergeDot(acc, ia, va, ib, vb)
}

// Active returns the shim.
func Active() *Kernels { return &Kernels{} }
