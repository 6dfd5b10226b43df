package core

import "saco/internal/mat"

// This file holds the two Lasso recurrences the batch driver of
// stepper.go runs: plain and accelerated (block) coordinate descent in
// synchronization-avoiding form (Alg. 2). The recurrences of Alg. 1 are
// unrolled s steps: all matrix products that would require a reduction in
// the distributed setting — the blocks A_{sk+j}ᵀA_{sk+t} of the
// (sµ)×(sµ) Gram matrix G = YᵀY and the products Yᵀỹ_sk, Yᵀz̃_sk — are
// computed once per outer iteration (lines 10–12, local below). The inner
// step then reconstructs each iteration's gradient from those batched
// quantities via the correction sums of eqs. (3)–(5) and performs only
// communication-free updates. At s = 1 there are no correction sums and
// the step is Alg. 1's, operation for operation.
//
// The replicated vectors z, y are updated in place every inner step
// (Alg. 2 lines 19, 21): reading z[idx] therefore yields exactly the
// I_jᵀz_sk + Σ_t I_jᵀI_t·Δz_t collision sum of eq. (4). The partitioned
// images z̃, ỹ are likewise updated in place (lines 20, 22) but never read
// by the inner step — only the hoisted products are — which is what makes
// the rearrangement communication-free in the distributed setting.

// lassoBlock is what the plain and accelerated recurrences share:
// sampling, the batched Gram, and the proximal block update.
type lassoBlock struct {
	blockStep
	d      *Stepper
	a      ColMatrix
	smp    *blockSampler
	deltas *mat.Dense   // row t: Δ of inner step t of the current batch
	prods  [2][]float64 // backing of the slice local returns
	// iterate returns the current x and its residual A·x − b.
	iterate func() (x, r []float64)
	formed  []float64 // the x the last objective evaluated
	history []TracePoint
}

func (l *lassoBlock) sample(sb int) {
	for j := 0; j < sb; j++ {
		l.d.bt.add(l.smp.next()...)
	}
}

// objective is ½‖A·x − b‖² + g(x) at the current iterate. Distributed, the
// residual is partitioned like the rows of A and x is replicated.
func (l *lassoBlock) objective() (float64, error) {
	x, r := l.iterate()
	l.formed = x
	rn, err := l.d.sumScalar(mat.Nrm2Sq(0, r))
	return 0.5*rn + l.g.Value(x), err
}

func (l *lassoBlock) track() (float64, error) {
	v, err := l.objective()
	l.history = append(l.history, TracePoint{Iter: l.d.h, Value: v})
	return v, err
}

// batchGram fills the driver's Gram with the batch's (Alg. 2 line 10),
// unless the block step builds a moving block's own (gram == nil; see
// NewLassoStepper).
func (l *lassoBlock) batchGram(cols []int) {
	if l.gram != nil {
		l.a.ColGram(cols, l.gram)
	}
}

// cross accumulates dst[a] += scale · Σ_b G[jOff+a, tOff+b]·Δ_t[b], the
// G_{j,t}·Δz_t terms of eqs. (3) and (5). It is called with t < j, so
// block (j, t) lies below the diagonal; the Gram holds only its upper
// triangle, and the entry is read as G[tOff+b, jOff+a], the same value
// in the same summation order.
func (l *lassoBlock) cross(j, t int, scale float64, dst []float64) {
	if scale == 0 {
		return
	}
	bt, gram := &l.d.bt, &l.d.gram
	jOff, tOff := bt.Off[j], bt.Off[t]
	coef := l.deltas.Row(t)[:bt.Off[t+1]-tOff]
	c, col := gram.C, gram.Data[tOff*gram.C+jOff:]
	for a := range dst {
		var s float64
		for b, cf := range coef {
			s += col[b*c+a] * cf
		}
		dst[a] += scale * s
	}
}

// prox finishes inner step j once l.grad holds the block gradient: the
// block step (take) with the j-th diagonal block of the batched Gram, or
// the block's own where the batch holds none (Alg. 2 lines 14–15), whose
// Δ = x⁺ − x is kept as row j of deltas, added into x and returned with
// the block.
func (l *lassoBlock) prox(j int, x []float64, scale float64) (idx []int, delta []float64) {
	idx = l.d.bt.Block(j)
	// Reading the in-place-updated x yields the collision sum of eq. (4).
	mat.Gather(l.w[:len(idx)], x, idx)
	delta = l.deltas.Row(j)[:len(idx)]
	l.take(idx, l.d.bt.Off[j], scale, delta)
	mat.ScatterAdd(x, delta, idx)
	return idx, delta
}

// blockStep is the proximal block update of both Lasso recurrences: a step
// of 1/(scale·λmax) of the block's Gram, then the prox (Alg. 1 and
// Alg. 2, lines 14–15).
type blockStep struct {
	g   Regularizer
	fix fixer // g's fixed-block rule; nil if it has none
	// The block's Gram is its diagonal block of gram, a batch's reduced
	// Gram, or, where gram is nil, cols.ColGram of the block.
	gram *mat.Dense
	cols ColMatrix
	diag mat.Dense // re-sliced over diagBuf every step
	// The caller fills w with the block's value and grad with its
	// gradient; gv is take's scratch.
	diagBuf, w, grad, gv []float64
	eig                  []float64 // mat.LargestEigSymScratch's scratch
}

func newBlockStep(g Regularizer, muMax int) blockStep {
	st := blockStep{g: g,
		diagBuf: make([]float64, muMax*muMax),
		w:       make([]float64, muMax),
		grad:    make([]float64, muMax),
		gv:      make([]float64, muMax),
		eig:     make([]float64, muMax*muMax+3*muMax),
	}
	st.fix, _ = g.(fixer)
	return st
}

// take writes the Δ of block idx, at offset off in gram, into delta. A
// block the penalty proves fixed (see L1.fixed) has Δ = +0 for every
// step size, so it skips the Gram, the eigensolve and the prox: the bits
// are the full path's. The rule reads w and grad only, which a batch
// replicates, so every rank of a distributed solve decides alike.
func (s *blockStep) take(idx []int, off int, scale float64, delta []float64) {
	mu := len(idx)
	w, grad := s.w[:mu], s.grad[:mu]
	if s.fix != nil && s.fix.fixed(w, grad) {
		clear(delta)
		return
	}
	s.diag.R, s.diag.C, s.diag.Data = mu, mu, s.diagBuf[:mu*mu]
	if s.gram == nil {
		s.cols.ColGram(idx, &s.diag)
	} else {
		// Only the upper triangle is copied: it is all
		// mat.LargestEigSymScratch reads.
		for a := 0; a < mu; a++ {
			copy(s.diag.Row(a)[a:], s.gram.Data[(off+a)*s.gram.C+off+a:])
		}
	}
	if eigsolveHook != nil {
		eigsolveHook()
	}
	if v := mat.LargestEigSymScratch(&s.diag, s.eig); v > 0 {
		proxDelta(s.g, 1/(scale*v), grad, w, s.gv[:mu], delta)
	} else {
		proxDelta(s.g, bigEta, nil, w, s.gv[:mu], delta)
	}
}

// eigsolveHook, set only by this package's tests before a solve starts,
// is called before every block eigensolve a step runs.
var eigsolveHook func()

// proxDelta writes Δ = prox_{η·g}(w − η·grad) − w (eq. (5)), using gv as
// scratch. A nil grad is the λmax ≤ 0 (or NaN) case, which proxes w
// itself with η = bigEta.
func proxDelta(g Regularizer, eta float64, grad, w, gv, delta []float64) {
	if grad == nil {
		copy(gv, w)
	} else {
		for a, ga := range grad {
			gv[a] = w[a] - eta*ga
		}
	}
	g.Prox(eta, gv) // soft threshold for L1
	for a := range delta {
		delta[a] = gv[a] - w[a]
	}
}

// plainLasso is (SA-)CD/BCD: proximal gradient on the sampled block with
// the optimal step 1/λmax(A_IᵀA_I), maintaining the residual r = A·x − b.
type plainLasso struct {
	*lassoBlock
	x, r []float64
	rP   []float64 // hoisted A_jᵀ·r_sk for all j
}

func (p *plainLasso) local() [][]float64 {
	cols := p.d.bt.Idx
	p.batchGram(cols)
	p.prods[0] = p.rP[:len(cols)]
	p.a.ColTMulVec(cols, p.r, p.prods[0])
	return p.prods[:1]
}

// step reconstructs the gradient as A_jᵀr_sk + Σ_{t<j} G_{j,t}·Δx_t, the
// non-accelerated specialization of eq. (3).
func (p *plainLasso) step(j int) bool {
	off := p.d.bt.Off[j]
	grad := p.grad[:p.d.bt.Off[j+1]-off]
	copy(grad, p.rP[off:])
	for t := 0; t < j; t++ {
		p.cross(j, t, 1, grad)
	}
	idx, delta := p.prox(j, p.x, 1)
	p.a.ColMulAdd(idx, delta, p.r)
	return true
}

func (p *plainLasso) form() (x, r []float64) { return p.x, p.r }

// accLasso is (SA-)accBCD, Alg. 2 with the Fercoq–Richtárik θ-schedule.
// State: z, y ∈ Rⁿ and their images z̃ = A·z − b, ỹ = A·y; the iterate is
// x = θ²·y + z and is only formed to be measured or returned.
type accLasso struct {
	*lassoBlock
	q          float64 // block count of the θ-schedule
	z, y       []float64
	zt, yt     []float64
	ytP, ztP   []float64 // Yᵀỹ_sk and Yᵀz̃_sk (Alg. 2 line 12)
	dCoef      []float64 // d_t = (1−qθ_{sk+t−1})/θ²_{sk+t−1}
	scaled     []float64
	xBuf, rBuf []float64 // form's output
}

func (s *accLasso) local() [][]float64 {
	cols := s.d.bt.Idx
	s.batchGram(cols)
	s.prods[0], s.prods[1] = s.ytP[:len(cols)], s.ztP[:len(cols)]
	s.a.ColTMulVec(cols, s.yt, s.prods[0])
	s.a.ColTMulVec(cols, s.zt, s.prods[1])
	return s.prods[:2]
}

func (s *accLasso) step(j int) bool {
	off := s.d.bt.Off[j]
	grad := s.grad[:s.d.bt.Off[j+1]-off]
	th := s.d.theta
	th2 := th * th
	// Eq. (3): r_j = θ²ỹ'_j + z̃'_j − Σ_t (θ²·d_t − 1)·G_{j,t}·Δz_t.
	for a := range grad {
		grad[a] = th2*s.ytP[off+a] + s.ztP[off+a]
	}
	for t := 0; t < j; t++ {
		s.cross(j, t, -(th2*s.dCoef[t] - 1), grad)
	}
	idx, delta := s.prox(j, s.z, s.q*th)

	// Lines 19–22: communication-free updates.
	dj := (1 - s.q*th) / th2
	s.dCoef[j] = dj
	s.a.ColMulAdd(idx, delta, s.zt)
	mat.ScatterAxpy(-dj, s.y, delta, idx)
	scaled := s.scaled[:len(delta)]
	for a, dl := range delta {
		scaled[a] = -dj * dl
	}
	s.a.ColMulAdd(idx, scaled, s.yt)
	s.d.theta = nextTheta(th)
	return true
}

// form assembles x = θ²·y + z (Alg. 1 line 19) and its residual
// A·x − b = θ²·ỹ + z̃ without disturbing solver state.
func (s *accLasso) form() (x, r []float64) {
	if s.xBuf == nil {
		s.xBuf, s.rBuf = make([]float64, len(s.z)), make([]float64, len(s.zt))
	}
	th2 := s.d.theta * s.d.theta
	for i := range s.xBuf {
		s.xBuf[i] = th2*s.y[i] + s.z[i]
	}
	for i := range s.rBuf {
		s.rBuf[i] = th2*s.yt[i] + s.zt[i]
	}
	return s.xBuf, s.rBuf
}
