package core

import (
	"errors"
	"fmt"
)

// LassoOptions configures the proximal least-squares solvers. The zero
// value is not runnable: Iters must be positive and Lambda (or Reg) set.
type LassoOptions struct {
	// Lambda is the regularization strength for the default L1 penalty.
	// Ignored when Reg is non-nil.
	Lambda float64
	// Reg overrides the penalty (elastic net, group lasso, ...).
	Reg Regularizer
	// BlockSize is µ, the number of coordinates updated per iteration.
	// 1 (the default) gives CD/accCD; larger values give BCD/accBCD.
	BlockSize int
	// Groups, when set, switches to group sampling: each iteration picks
	// one group uniformly at random and updates it as a block. BlockSize
	// is ignored; Reg should be a GroupLasso over the same groups.
	Groups [][]int
	// Iters is H, the total number of (inner) iterations.
	Iters int
	// S is the recurrence-unrolling parameter. S <= 1 runs the classical
	// algorithm (Alg. 1); S > 1 runs the synchronization-avoiding variant
	// (Alg. 2), communicating every S iterations.
	S int
	// Accelerated selects the Nesterov-accelerated variants (accCD,
	// accBCD) instead of plain CD/BCD.
	Accelerated bool
	// Seed drives coordinate sampling. The paper's replicated-seed
	// discipline: every rank uses the same seed, so selections agree with
	// no communication.
	Seed uint64
	// TrackEvery records the objective every so many iterations into the
	// result history (0 disables tracking; the final objective is always
	// computed).
	TrackEvery int
	// X0 is an optional warm start (classical solvers only use it as the
	// initial z/x; default zeros).
	X0 []float64
	// Exec selects the execution backend of the solve: sequential by
	// default; BackendMulticore fans the batched Gram and product kernels
	// across the persistent worker pool without changing iterates;
	// BackendAsync runs lock-free HOGWILD!-style solver workers
	// (convergent but not deterministic; TrackEvery/Tol are skipped).
	Exec Exec
}

// Regularizer returns the effective penalty: Reg if set, else L1{Lambda}.
func (o *LassoOptions) Regularizer() Regularizer {
	if o.Reg != nil {
		return o.Reg
	}
	return L1{Lambda: o.Lambda}
}

// mu returns the effective block size.
func (o *LassoOptions) mu() int {
	if o.BlockSize <= 0 {
		return 1
	}
	return o.BlockSize
}

// Validate checks the options against an m×n problem with lenB targets.
// Every deterministic entry point — Lasso here, the rank bodies of package
// dist — rejects a bad configuration with this one error.
func (o *LassoOptions) Validate(m, n int, lenB int) error {
	if lenB != m {
		return fmt.Errorf("core: len(b)=%d does not match %d rows", lenB, m)
	}
	if o.Iters <= 0 {
		return errors.New("core: Iters must be positive")
	}
	if o.Lambda < 0 {
		return errors.New("core: Lambda must be nonnegative")
	}
	if o.Groups == nil && o.mu() > n {
		return fmt.Errorf("core: BlockSize %d exceeds %d features", o.mu(), n)
	}
	if o.X0 != nil && len(o.X0) != n {
		return fmt.Errorf("core: len(X0)=%d, want %d", len(o.X0), n)
	}
	seen := make(map[int]bool)
	for _, g := range o.Groups {
		if len(g) == 0 {
			return errors.New("core: empty group")
		}
		for _, j := range g {
			if j < 0 || j >= n {
				return fmt.Errorf("core: group index %d out of range", j)
			}
			if seen[j] {
				return fmt.Errorf("core: coordinate %d appears in two groups", j)
			}
			seen[j] = true
		}
	}
	return nil
}

// TracePoint is one entry of a convergence history.
type TracePoint struct {
	Iter  int     // iteration count h at which the value was recorded
	Value float64 // objective (Lasso) or duality gap (SVM)
}

// LassoResult is the output of the Lasso-family solvers.
type LassoResult struct {
	// X is the solution vector (for accelerated variants, θ²_H·y_H + z_H
	// per Alg. 1 line 19).
	X []float64
	// Objective is ½‖A·X − b‖² + g(X) at the final iterate.
	Objective float64
	// History holds the tracked objective values (TrackEvery > 0).
	History []TracePoint
	// Iters is the number of iterations performed.
	Iters int
}

// NNZ returns the number of nonzero solution coordinates — the sparsity
// the Lasso penalty is there to create.
func (r *LassoResult) NNZ() int {
	n := 0
	for _, v := range r.X {
		if v != 0 {
			n++
		}
	}
	return n
}

// SVMLoss selects the hinge-loss variant of the SVM solvers.
type SVMLoss int

// The two losses of eq. (11): max(1−b·Ax, 0) and its square.
const (
	SVML1 SVMLoss = iota // hinge
	SVML2                // squared hinge
)

// String returns the paper's name for the loss.
func (l SVMLoss) String() string {
	if l == SVML2 {
		return "svm-l2"
	}
	return "svm-l1"
}

// ParseSVMLoss maps a -loss flag value ("l1", "l2") onto an SVMLoss; the
// error names the accepted values.
func ParseSVMLoss(s string) (SVMLoss, error) {
	switch s {
	case "l1":
		return SVML1, nil
	case "l2":
		return SVML2, nil
	}
	return 0, fmt.Errorf("unknown loss %q (l1, l2)", s)
}

// SVMOptions configures the dual coordinate-descent SVM solvers.
type SVMOptions struct {
	// Lambda is the penalty parameter λ of eq. (10) (the C of Hsieh et
	// al.); the paper uses λ = 1 throughout.
	Lambda float64
	// Loss selects SVM-L1 (hinge) or SVM-L2 (squared hinge).
	Loss SVMLoss
	// Iters is H, the number of dual coordinate updates.
	Iters int
	// S is the recurrence-unrolling parameter; S <= 1 runs Alg. 3,
	// S > 1 runs SA-SVM (Alg. 4).
	S int
	// Seed drives coordinate sampling (replicated-seed discipline).
	Seed uint64
	// TrackEvery records the duality gap every so many iterations
	// (rounded up to outer-iteration boundaries for SA). 0 disables.
	TrackEvery int
	// Tol, when positive, stops the solver once the duality gap falls to
	// or below it (checked at tracking points). The paper uses 1e-1 for
	// the Table V timing runs.
	Tol float64
	// Alpha0 is an optional warm start for the dual variables.
	Alpha0 []float64
	// Exec selects the execution backend of the solve: sequential by
	// default; BackendMulticore fans the batched Gram and product kernels
	// across the persistent worker pool without changing iterates;
	// BackendAsync runs lock-free HOGWILD!-style solver workers
	// (convergent but not deterministic; TrackEvery/Tol are skipped).
	Exec Exec
}

// gammaNu returns the γ and ν constants of Alg. 4 line 1:
// γ = 0, ν = λ for SVM-L1; γ = 1/(2λ), ν = ∞ for SVM-L2.
func (o *SVMOptions) gammaNu() (gamma, nu float64) {
	if o.Loss == SVML2 {
		return 0.5 / o.Lambda, inf
	}
	return 0, o.Lambda
}

func (o *SVMOptions) validate(m int, lenB int) error {
	if lenB != m {
		return fmt.Errorf("core: len(b)=%d does not match %d rows", lenB, m)
	}
	if o.Iters <= 0 {
		return errors.New("core: Iters must be positive")
	}
	if o.Lambda <= 0 {
		return errors.New("core: Lambda must be positive")
	}
	if o.Alpha0 != nil && len(o.Alpha0) != m {
		return fmt.Errorf("core: len(Alpha0)=%d, want %d", len(o.Alpha0), m)
	}
	return nil
}

// GapPoint is one duality-gap measurement.
type GapPoint struct {
	Iter   int
	Primal float64
	Dual   float64
	Gap    float64
}

// SVMResult is the output of the SVM solvers.
type SVMResult struct {
	// X is the primal weight vector.
	X []float64
	// Alpha is the dual solution.
	Alpha []float64
	// Primal, Dual and Gap are the final objective values; Gap = Primal −
	// Dual ≥ 0, → 0 at optimality (strong duality, §VI).
	Primal, Dual, Gap float64
	// History holds tracked duality-gap points.
	History []GapPoint
	// Iters is the number of iterations actually performed (early stop on
	// Tol counts partial work).
	Iters int
}

// SupportVectors returns the number of nonzero dual variables.
func (r *SVMResult) SupportVectors() int {
	n := 0
	for _, a := range r.Alpha {
		if a != 0 {
			n++
		}
	}
	return n
}
