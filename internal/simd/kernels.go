package simd

import (
	"fmt"
	"sync/atomic"
)

// Kernels is one kernel set: a name plus the two primitives the sets
// implement differently. Every other primitive has exactly one
// implementation (scalar.go) and is a plain function.
type Kernels struct {
	name string

	axpy func(alpha float64, x, y []float64)
	scal func(alpha float64, x []float64)
}

// Name returns the set's dispatch name (scalar, avx2).
func (k *Kernels) Name() string { return k.name }

// MergeDot is the package-level MergeDot: the merge has one
// implementation. The method remains because the repo benchmark's
// standalone stage (benchmarks/solve.go) times it through Active().
func (k *Kernels) MergeDot(acc float64, ia []int, va []float64, ib []int, vb []float64) float64 {
	return MergeDot(acc, ia, va, ib, vb)
}

// active is the process-wide dispatch target. It is an atomic pointer
// so Use (tests) is safe against concurrent kernel calls; the Load on
// amd64 is an ordinary MOV.
var active atomic.Pointer[Kernels]

// Active returns the kernel set Axpy and Scal dispatch to.
func Active() *Kernels { return active.Load() }

// sets is the registry; the last entry is the default.
var sets = []*Kernels{scalarSet}

// Lookup returns the named set if it is available on this CPU.
func Lookup(name string) (*Kernels, bool) {
	for _, k := range sets {
		if k.name == name {
			return k, true
		}
	}
	return nil, false
}

// Names lists every available set in registration order.
func Names() []string {
	out := make([]string, len(sets))
	for i, k := range sets {
		out[i] = k.name
	}
	return out
}

// Use switches the process-wide dispatch to the named set. It is meant
// for tests and the parity harness; kernel calls racing with Use see
// either the old or the new set, never a mix within one call.
func Use(name string) error {
	k, ok := Lookup(name)
	if !ok {
		return fmt.Errorf("simd: unknown or unavailable kernel set %q (have %v)", name, Names())
	}
	active.Store(k)
	return nil
}

func init() {
	if avx2Set != nil {
		sets = append(sets, avx2Set)
	}
	active.Store(sets[len(sets)-1])
}

// Axpy computes y[i] += alpha·x[i] over len(x) elements with the
// active set's kernel; alpha == 0 is a no-op (see the package contract).
// len(y) must be at least len(x).
func Axpy(alpha float64, x, y []float64) {
	if len(y) < len(x) {
		panic(fmt.Sprintf("simd: Axpy len(y)=%d < len(x)=%d", len(y), len(x)))
	}
	if alpha == 0 {
		return
	}
	active.Load().axpy(alpha, x, y)
}

// Scal computes x[i] *= alpha in place with the active set's kernel.
func Scal(alpha float64, x []float64) { active.Load().scal(alpha, x) }
