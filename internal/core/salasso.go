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
	d       *Stepper
	a       ColMatrix
	g       Regularizer
	smp     *blockSampler
	deltas  *mat.Dense // row t: Δ of inner step t of the current batch
	diag    mat.Dense  // re-sliced over diagBuf every inner step
	diagBuf []float64
	grad    []float64 // the block gradient an inner step assembles
	w, gv   []float64
	eig     []float64    // blockLargestEig's scratch
	prods   [2][]float64 // backing of the slice local returns
	// iterate returns the current x and its residual A·x − b.
	iterate func() (x, r []float64)
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
	rn, err := l.d.sumScalar(mat.Nrm2Sq(r))
	return 0.5*rn + l.g.Value(x), err
}

func (l *lassoBlock) track() (float64, error) {
	v, err := l.objective()
	l.history = append(l.history, TracePoint{Iter: l.d.h, Value: v})
	return v, err
}

// cross accumulates dst[a] += scale · Σ_b G[jOff+a, tOff+b]·Δ_t[b], the
// G_{j,t}·Δz_t terms of eqs. (3) and (5).
func (l *lassoBlock) cross(j, t int, scale float64, dst []float64) {
	if scale == 0 {
		return
	}
	bt, gram := &l.d.bt, &l.d.gram
	jOff, tOff := bt.Off[j], bt.Off[t]
	coef := l.deltas.Row(t)[:bt.Off[t+1]-tOff]
	for a := range dst {
		row := gram.Data[(jOff+a)*gram.C+tOff:]
		var s float64
		for b, c := range coef {
			s += row[b] * c
		}
		dst[a] += scale * s
	}
}

// prox finishes inner step j once l.grad holds the block gradient: the
// step size 1/(scale·λmax) from the j-th diagonal block of the batched
// Gram matrix (Alg. 2 lines 14–15), the proximal update of x on the
// block, and Δ = x⁺ − x, which is kept as row j of deltas, added into x
// and returned with the block.
func (l *lassoBlock) prox(j int, x []float64, scale float64) (idx []int, delta []float64) {
	bt, gram := &l.d.bt, &l.d.gram
	idx = bt.Block(j)
	mu, off := len(idx), bt.Off[j]
	l.diag.R, l.diag.C, l.diag.Data = mu, mu, l.diagBuf[:mu*mu]
	for a := 0; a < mu; a++ {
		copy(l.diag.Row(a), gram.Data[(off+a)*gram.C+off:])
	}
	v := blockLargestEig(&l.diag, l.eig)

	// Reading the in-place-updated x yields the collision sum of eq. (4).
	w, gv := l.w[:mu], l.gv[:mu]
	mat.Gather(w, x, idx)
	eta := bigEta
	if v > 0 {
		eta = 1 / (scale * v)
		for a, g := range l.grad[:mu] {
			gv[a] = w[a] - eta*g
		}
	} else {
		copy(gv, w)
	}
	l.g.Prox(eta, gv) // soft threshold for L1
	delta = l.deltas.Row(j)[:mu]
	for a := range delta {
		delta[a] = gv[a] - w[a] // eq. (5)
	}
	mat.ScatterAdd(x, delta, idx)
	return idx, delta
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
	p.a.ColGram(cols, &p.d.gram)
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
	s.a.ColGram(cols, &s.d.gram)
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
