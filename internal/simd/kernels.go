package simd

import (
	"fmt"
	"os"
	"sync/atomic"
)

// Kernels is one complete kernel set. All fields must be non-nil; sets
// that cannot improve on a primitive install the scalar or unrolled
// implementation for it, so dispatch never branches per call.
type Kernels struct {
	name    string
	bitwise bool

	dot         func(x, y []float64) float64
	nrm2sq      func(acc float64, x []float64) float64
	axpy        func(alpha float64, x, y []float64)
	scal        func(alpha float64, x []float64)
	gatherDot   func(acc float64, val []float64, idx []int, x []float64) float64
	gatherAxpy  func(alpha float64, dst, src []float64, idx []int)
	scatterAxpy func(alpha float64, dst, v []float64, idx []int)
	mergeDot    func(acc float64, ia []int, va []float64, ib []int, vb []float64) float64
	spmvRows    func(rowPtr, colIdx []int, val, x, y []float64, lo, hi int)
}

// Name returns the set's dispatch name (scalar, unrolled, avx2,
// reassoc).
func (k *Kernels) Name() string { return k.name }

// Bitwise reports whether every kernel in the set reproduces the scalar
// reference bit for bit. Non-bitwise sets (reassoc) are excluded from
// the deterministic backend matrix and only ever compared under a
// tolerance.
func (k *Kernels) Bitwise() bool { return k.bitwise }

// Dot returns the inner product of x and y in the set's accumulation
// order. len(y) must be at least len(x).
func (k *Kernels) Dot(x, y []float64) float64 {
	if len(y) < len(x) {
		panic(fmt.Sprintf("simd: Dot len(y)=%d < len(x)=%d", len(y), len(x)))
	}
	return k.dot(x, y)
}

// Nrm2Sq returns acc + Σ x[i]², threading the running accumulator the
// out-of-core column kernels carry across row blocks.
func (k *Kernels) Nrm2Sq(acc float64, x []float64) float64 {
	return k.nrm2sq(acc, x)
}

// Axpy computes y[i] += alpha·x[i] over len(x) elements; alpha == 0 is
// a no-op (see the package contract). len(y) must be at least len(x).
func (k *Kernels) Axpy(alpha float64, x, y []float64) {
	if len(y) < len(x) {
		panic(fmt.Sprintf("simd: Axpy len(y)=%d < len(x)=%d", len(y), len(x)))
	}
	if alpha == 0 {
		return
	}
	k.axpy(alpha, x, y)
}

// Scal computes x[i] *= alpha in place.
func (k *Kernels) Scal(alpha float64, x []float64) { k.scal(alpha, x) }

// GatherDot returns acc + Σ val[k]·x[idx[k]] — the sparse-row dot
// product of every CSR/CSC kernel. len(val) must be at least len(idx).
func (k *Kernels) GatherDot(acc float64, val []float64, idx []int, x []float64) float64 {
	if len(val) < len(idx) {
		panic(fmt.Sprintf("simd: GatherDot len(val)=%d < len(idx)=%d", len(val), len(idx)))
	}
	return k.gatherDot(acc, val, idx, x)
}

// GatherAxpy computes dst[k] += alpha·src[idx[k]] — the dense Gram
// update inner loop; alpha == 0 is a no-op. len(dst) must be at least
// len(idx).
func (k *Kernels) GatherAxpy(alpha float64, dst, src []float64, idx []int) {
	if len(dst) < len(idx) {
		panic(fmt.Sprintf("simd: GatherAxpy len(dst)=%d < len(idx)=%d", len(dst), len(idx)))
	}
	if alpha == 0 {
		return
	}
	k.gatherAxpy(alpha, dst, src, idx)
}

// ScatterAxpy computes dst[idx[k]] += alpha·v[k] — the sparse
// row/column update of every CSR/CSC kernel; alpha == 0 is a no-op.
// len(v) must be at least len(idx). Duplicate indices accumulate in
// index order, like the scalar loop.
func (k *Kernels) ScatterAxpy(alpha float64, dst, v []float64, idx []int) {
	if len(v) < len(idx) {
		panic(fmt.Sprintf("simd: ScatterAxpy len(v)=%d < len(idx)=%d", len(v), len(idx)))
	}
	if alpha == 0 {
		return
	}
	k.scatterAxpy(alpha, dst, v, idx)
}

// MergeDot returns acc + the dot product of two sparse vectors given as
// strictly increasing (index, value) pairs, via a sorted two-pointer
// merge. Package sparse defines its Gram entries by it (and assembles
// them without it: sparse/gram.go) and scores sparse requests with it.
func (k *Kernels) MergeDot(acc float64, ia []int, va []float64, ib []int, vb []float64) float64 {
	if len(va) < len(ia) || len(vb) < len(ib) {
		panic("simd: MergeDot index/value length mismatch")
	}
	return k.mergeDot(acc, ia, va, ib, vb)
}

// SpMVRows computes y[i] = Σ_k val[k]·x[colIdx[k]] over each CSR row i
// in [lo, hi) — the fused gather-multiply-accumulate row loop of
// CSR.MulVec, batched so dispatch costs one indirect call per row
// block rather than one per row.
func (k *Kernels) SpMVRows(rowPtr, colIdx []int, val, x, y []float64, lo, hi int) {
	k.spmvRows(rowPtr, colIdx, val, x, y, lo, hi)
}

// active is the process-wide dispatch target. It is an atomic pointer
// so Use (tests, CLI overrides) is safe against concurrent kernel
// calls; the Load on amd64 is an ordinary MOV.
var active atomic.Pointer[Kernels]

// Active returns the kernel set every package-level wrapper dispatches
// to.
func Active() *Kernels { return active.Load() }

// sets is the registry, in preference order (last bitwise entry wins
// the default).
var sets []*Kernels

// warning records a rejected SACO_KERNELS value for CLIs to surface;
// library init must not panic or write to stderr.
var warning string

// Warning returns a human-readable note when the SACO_KERNELS override
// was ignored (unknown name or unavailable on this CPU), else "".
func Warning() string { return warning }

// Lookup returns the named set if it is registered and available on
// this CPU.
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

// BitwiseNames lists the sets whose kernels are bitwise-identical to
// scalar — the kernel-set dimension of the deterministic backend
// matrix. reassoc is deliberately absent.
func BitwiseNames() []string {
	var out []string
	for _, k := range sets {
		if k.bitwise {
			out = append(out, k.name)
		}
	}
	return out
}

// Use switches the process-wide dispatch to the named set. It is meant
// for init-time overrides, CLIs and tests; kernel calls racing with Use
// see either the old or the new set, never a mix within one call.
func Use(name string) error {
	k, ok := Lookup(name)
	if !ok {
		return fmt.Errorf("simd: unknown or unavailable kernel set %q (have %v)", name, Names())
	}
	active.Store(k)
	return nil
}

func init() {
	sets = []*Kernels{scalarSet, unrolledSet}
	def := unrolledSet
	if avx2Set != nil {
		sets = append(sets, avx2Set)
		def = avx2Set
	}
	sets = append(sets, reassocSet)
	active.Store(def)
	if env := os.Getenv("SACO_KERNELS"); env != "" && env != "auto" {
		if err := Use(env); err != nil {
			warning = fmt.Sprintf("SACO_KERNELS=%q ignored: %v", env, err)
		}
	}
}

// Package-level wrappers: the hot-path entry points internal/mat and
// internal/sparse call. Each costs one atomic pointer load plus one
// indirect call; loops that issue many kernel calls hoist Active()
// once instead.

// Dot dispatches Kernels.Dot on the active set.
func Dot(x, y []float64) float64 { return active.Load().Dot(x, y) }

// Nrm2Sq dispatches Kernels.Nrm2Sq on the active set.
func Nrm2Sq(acc float64, x []float64) float64 { return active.Load().Nrm2Sq(acc, x) }

// Axpy dispatches Kernels.Axpy on the active set.
func Axpy(alpha float64, x, y []float64) { active.Load().Axpy(alpha, x, y) }

// Scal dispatches Kernels.Scal on the active set.
func Scal(alpha float64, x []float64) { active.Load().Scal(alpha, x) }

// GatherDot dispatches Kernels.GatherDot on the active set.
func GatherDot(acc float64, val []float64, idx []int, x []float64) float64 {
	return active.Load().GatherDot(acc, val, idx, x)
}

// GatherAxpy dispatches Kernels.GatherAxpy on the active set.
func GatherAxpy(alpha float64, dst, src []float64, idx []int) {
	active.Load().GatherAxpy(alpha, dst, src, idx)
}

// ScatterAxpy dispatches Kernels.ScatterAxpy on the active set.
func ScatterAxpy(alpha float64, dst, v []float64, idx []int) {
	active.Load().ScatterAxpy(alpha, dst, v, idx)
}

// MergeDot dispatches Kernels.MergeDot on the active set.
func MergeDot(acc float64, ia []int, va []float64, ib []int, vb []float64) float64 {
	return active.Load().MergeDot(acc, ia, va, ib, vb)
}

// SpMVRows dispatches Kernels.SpMVRows on the active set.
func SpMVRows(rowPtr, colIdx []int, val, x, y []float64, lo, hi int) {
	active.Load().SpMVRows(rowPtr, colIdx, val, x, y, lo, hi)
}
