package core

import (
	"saco/internal/mat"
	"saco/internal/rng"
)

// SVM trains a linear SVM by dual coordinate descent (Hsieh et al.,
// Alg. 3) in its synchronization-avoiding form (Alg. 4), of which the
// classical method is the S <= 1 case. It returns the primal weight
// vector x, the dual solution α, and the duality gap — the convergence
// certificate of Fig. 5.
func SVM(a RowMatrix, b []float64, opt SVMOptions) (*SVMResult, error) {
	st, err := NewSVMStepper(execRow(a, opt.Exec), b, opt, nil, nil)
	if err != nil {
		return nil, err
	}
	return st.Run()
}

// SVMStepper is the batch driver around the dual coordinate recurrence:
// a is the whole matrix, or one rank's column block of it with red
// summing over the ranks. The dual α and the labels b are whole (and
// replicated) either way; the primal x covers a's columns.
type SVMStepper struct {
	Stepper
	svm *dualSVM
}

// NewSVMStepper validates opt and builds the solver at iteration zero.
// red and obs may be nil.
func NewSVMStepper(a RowMatrix, b []float64, opt SVMOptions, red Reducer, obs Observer) (*SVMStepper, error) {
	m, n := a.Dims()
	if err := opt.validate(m, len(b)); err != nil {
		return nil, err
	}
	s := max(1, min(opt.S, opt.Iters)) // no batch holds more than Iters rows
	st := &SVMStepper{}
	sv := &dualSVM{
		d: &st.Stepper, a: a, b: b, lambda: opt.Lambda, loss: opt.Loss,
		alpha: make([]float64, m), x: make([]float64, n), margin: make([]float64, m),
		xP: make([]float64, s), moved: make([]movedStep, 0, s),
	}
	sv.gamma, sv.nu = opt.gammaNu()
	if opt.Alpha0 != nil {
		copy(sv.alpha, opt.Alpha0)
		// Line 2: x₀ = Σ bᵢαᵢAᵢᵀ.
		for i, ai := range sv.alpha {
			if ai != 0 {
				a.RowTAxpy(i, ai*b[i], sv.x)
			}
		}
	}
	st.svm, st.state, st.tol = sv, [][]float64{sv.alpha, sv.x}, opt.Tol
	st.init(sv, rng.New(opt.Seed), red, obs, opt.Iters, s, opt.TrackEvery, 1, true)
	return st, nil
}

// Run iterates to the budget (or to Tol at a tracking point) and
// evaluates the final objectives. In a distributed solve they are the
// global ones and X is this rank's column slice of the primal vector.
func (st *SVMStepper) Run() (*SVMResult, error) {
	if err := st.run(); err != nil {
		return nil, err
	}
	sv := st.svm
	gap, err := st.measure(sv.objectives)
	if err != nil {
		return nil, err
	}
	return &SVMResult{
		X: sv.x, Alpha: sv.alpha, Primal: sv.primal, Dual: sv.dual, Gap: gap,
		History: sv.history, Iters: st.h,
	}, nil
}

// dualSVM is Alg. 4: the coordinate recurrences of Alg. 3 unrolled s
// steps. One batched computation per outer iteration produces the s×s
// Gram matrix G = YYᵀ over the sampled rows and the hoisted products
// x'_j = A_j·x_sk (lines 9–10); the inner step reconstructs each gradient
// via eq. (15) and performs communication-free updates. Reading the
// in-place updated α yields the collision sum β of eq. (14).
type dualSVM struct {
	d            *Stepper
	a            RowMatrix
	b            []float64
	lambda       float64
	loss         SVMLoss
	gamma, nu    float64
	alpha, x     []float64
	margin       []float64   // scratch for A·x in gap evaluation
	xP           []float64   // hoisted A_j·x_sk
	moved        []movedStep // the steps of the current batch that moved α
	prods        [1][]float64
	primal, dual float64 // the last objectives evaluated
	history      []GapPoint
}

// movedStep is an inner step t that moved α, with coef = θ_t·b_{rows[t]},
// its factor in the correction sum of eq. (15).
type movedStep struct {
	t    int
	coef float64
}

func (s *dualSVM) sample(sb int) {
	m := len(s.alpha)
	for j := 0; j < sb; j++ {
		s.d.bt.add(s.d.stream.Intn(m)) // line 5 (same draws as Alg. 3 line 4)
	}
}

func (s *dualSVM) local() [][]float64 {
	rows := s.d.bt.Idx
	s.moved = s.moved[:0]
	s.a.RowGram(rows, &s.d.gram)
	s.prods[0] = s.xP[:len(rows)]
	s.a.RowMulVec(rows, s.x, s.prods[0])
	return s.prods[:]
}

// step is the projected-Newton coordinate update of Alg. 3 lines 9–15 on
// the gradient eq. (15) reconstructs; it returns whether α moved.
func (s *dualSVM) step(j int) bool {
	rows, g := s.d.bt.Idx, &s.d.gram
	i := rows[j]
	eta := g.At(j, j) + s.gamma // line 11: η_j = ‖A_j‖² + γ
	// Eq. (15): A_j·x_{sk+j−1} = x'_j + Σ_{t<j} θ_t·b_t·G_{j,t}, with
	// G_{j,t} read from the upper triangle as G_{t,j}. A step with θ_t = 0
	// adds nothing, so only the steps that moved are summed, in ascending
	// t.
	dot := s.xP[j]
	for _, m := range s.moved {
		dot += m.coef * g.Data[m.t*g.C+j]
	}
	ai := s.alpha[i]
	grad := s.b[i]*dot - 1 + s.gamma*ai
	theta := 0.0
	// Line 9: a zero projected gradient means the coordinate is already
	// optimal under its box constraint.
	if clip(ai-grad, 0, s.nu)-ai != 0 {
		theta = clip(ai-grad/eta, 0, s.nu) - ai // line 11
		if theta != 0 {
			coef := theta * s.b[i]
			s.alpha[i] += theta        // line 14
			s.a.RowTAxpy(i, coef, s.x) // line 15: x += θ·bᵢ·Aᵢᵀ
			s.moved = append(s.moved, movedStep{j, coef})
		}
	}
	return theta != 0
}

// objectives evaluates primal and dual at the current iterate and
// returns the duality gap. Distributed, the margins A·x = Σ A_loc·x_loc
// and ‖x‖² = Σ ‖x_loc‖² are summed over the ranks, so every rank holds
// the same bits and reaches the same Tol decision.
func (s *dualSVM) objectives() (float64, error) {
	s.a.MulVec(s.x, s.margin)
	if err := s.d.sumVec(s.margin); err != nil {
		return 0, err
	}
	xns, err := s.d.sumScalar(mat.Nrm2Sq(0, s.x))
	if err != nil {
		return 0, err
	}
	var gap float64
	s.primal, s.dual, gap = svmObjectives(xns, s.alpha, s.margin, s.b, s.lambda, s.gamma, s.loss)
	return gap, nil
}

func (s *dualSVM) track() (float64, error) {
	gap, err := s.objectives()
	s.history = append(s.history, GapPoint{Iter: s.d.h, Primal: s.primal, Dual: s.dual, Gap: gap})
	return gap, err
}
