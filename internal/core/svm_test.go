package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"saco/internal/datagen"
	"saco/internal/sparse"
)

func svmProblem(seed uint64) (RowMatrix, []float64) {
	d := datagen.Classification("test", seed, 150, 60, 0.2, 0.05)
	return d.CSR, d.B
}

func TestSVMValidation(t *testing.T) {
	a, b := svmProblem(1)
	bad := []SVMOptions{
		{Lambda: 1, Iters: 0},
		{Lambda: 0, Iters: 10},
		{Lambda: -1, Iters: 10},
		{Lambda: 1, Iters: 10, Alpha0: make([]float64, 3)},
	}
	for i, opt := range bad {
		if _, err := SVM(a, b, opt); err == nil {
			t.Fatalf("case %d: expected error", i)
		}
	}
	if _, err := SVM(a, b[:5], SVMOptions{Lambda: 1, Iters: 10}); err == nil {
		t.Fatal("expected dimension error")
	}
	// A matrix with no rows has no coordinate to sample: every entry
	// point (SVM, a rank's stepper) refuses it up front.
	empty := &sparse.CSR{M: 0, N: 3, RowPtr: []int{0}}
	if _, err := SVM(empty, nil, SVMOptions{Lambda: 1, Iters: 10}); err == nil || !strings.Contains(err.Error(), "core: SVM needs at least one row") {
		t.Fatalf("zero-row matrix: %v", err)
	}
	if _, err := NewSVMStepper(empty, nil, SVMOptions{Lambda: 1, Iters: 10}, nil, nil); err == nil {
		t.Fatal("stepper accepted a zero-row matrix")
	}
}

func TestSVMGapConverges(t *testing.T) {
	a, b := svmProblem(2)
	for _, loss := range []SVMLoss{SVML1, SVML2} {
		res, err := SVM(a, b, SVMOptions{Lambda: 1, Loss: loss, Iters: 20000, Seed: 3, TrackEvery: 2000})
		if err != nil {
			t.Fatal(err)
		}
		if res.Gap < -1e-8 {
			t.Fatalf("%v: negative duality gap %v", loss, res.Gap)
		}
		first := res.History[0].Gap
		if res.Gap > first*0.05 {
			t.Fatalf("%v: gap %v did not shrink from %v", loss, res.Gap, first)
		}
		// Weak duality holds at every tracked point.
		for _, p := range res.History {
			if p.Gap < -1e-8 {
				t.Fatalf("%v: negative gap %v at iter %d", loss, p.Gap, p.Iter)
			}
		}
	}
}

func TestSVMTrainsAccurateClassifier(t *testing.T) {
	d := datagen.Classification("test", 4, 300, 50, 0.3, 0.01)
	res, err := SVM(d.CSR, d.B, SVMOptions{Lambda: 1, Iters: 30000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	margins := make([]float64, 300)
	d.CSR.MulVec(res.X, margins)
	correct := 0
	for i, m := range margins {
		if m*d.B[i] > 0 {
			correct++
		}
	}
	if correct < 270 {
		t.Fatalf("training accuracy %d/300 too low", correct)
	}
	if res.SupportVectors() == 0 || res.SupportVectors() == 300 {
		t.Fatalf("support vector count degenerate: %d", res.SupportVectors())
	}
}

// TestSASVMEquivalence mirrors Fig. 5: SA-SVM reproduces the classical
// dual CD trajectory up to roundoff for both losses and large s.
func TestSASVMEquivalence(t *testing.T) {
	a, b := svmProblem(6)
	for _, loss := range []SVMLoss{SVML1, SVML2} {
		base := SVMOptions{Lambda: 1, Loss: loss, Iters: 5000, Seed: 7, TrackEvery: 500}
		ref, err := SVM(a, b, base)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []int{2, 16, 500} {
			opt := base
			opt.S = s
			got, err := SVM(a, b, opt)
			if err != nil {
				t.Fatal(err)
			}
			for i := range ref.Alpha {
				if math.Abs(got.Alpha[i]-ref.Alpha[i]) > 1e-8*(1+math.Abs(ref.Alpha[i])) {
					t.Fatalf("%v s=%d: alpha[%d] = %v vs %v", loss, s, i, got.Alpha[i], ref.Alpha[i])
				}
			}
			for i := range ref.X {
				if math.Abs(got.X[i]-ref.X[i]) > 1e-8*(1+math.Abs(ref.X[i])) {
					t.Fatalf("%v s=%d: x[%d] = %v vs %v", loss, s, i, got.X[i], ref.X[i])
				}
			}
			for k := range ref.History {
				if d := relDiff(got.History[k].Gap, ref.History[k].Gap); d > 1e-6 && math.Abs(got.History[k].Gap-ref.History[k].Gap) > 1e-9 {
					t.Fatalf("%v s=%d: gap history[%d] %v vs %v", loss, s, k, got.History[k].Gap, ref.History[k].Gap)
				}
			}
		}
	}
}

func TestSVMAlphaBoxConstraint(t *testing.T) {
	a, b := svmProblem(8)
	lambda := 0.5
	res, err := SVM(a, b, SVMOptions{Lambda: lambda, Loss: SVML1, Iters: 8000, Seed: 9, S: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i, al := range res.Alpha {
		if al < 0 || al > lambda {
			t.Fatalf("alpha[%d] = %v outside [0, %v]", i, al, lambda)
		}
	}
	// L2 has no upper bound but must stay nonnegative.
	res2, err := SVM(a, b, SVMOptions{Lambda: lambda, Loss: SVML2, Iters: 8000, Seed: 9, S: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i, al := range res2.Alpha {
		if al < 0 {
			t.Fatalf("L2 alpha[%d] = %v negative", i, al)
		}
	}
}

func TestSVMEarlyStopOnTol(t *testing.T) {
	a, b := svmProblem(10)
	res, err := SVM(a, b, SVMOptions{Lambda: 1, Iters: 100000, Seed: 11, TrackEvery: 500, Tol: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iters >= 100000 {
		t.Fatalf("did not stop early (iters=%d, gap=%v)", res.Iters, res.Gap)
	}
	if res.Gap > 1.0 {
		t.Fatalf("stopped with gap %v above tol", res.Gap)
	}
	// SA path with the same tolerance also stops early.
	sa, err := SVM(a, b, SVMOptions{Lambda: 1, Iters: 100000, Seed: 11, TrackEvery: 500, Tol: 1.0, S: 100})
	if err != nil {
		t.Fatal(err)
	}
	if sa.Iters >= 100000 {
		t.Fatalf("SA did not stop early (iters=%d)", sa.Iters)
	}
}

func TestSVMWarmStart(t *testing.T) {
	a, b := svmProblem(12)
	long, err := SVM(a, b, SVMOptions{Lambda: 1, Iters: 20000, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := SVM(a, b, SVMOptions{Lambda: 1, Iters: 100, Seed: 14, Alpha0: long.Alpha})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Gap > long.Gap*2+1e-6 {
		t.Fatalf("warm start lost progress: gap %v vs %v", warm.Gap, long.Gap)
	}
}

func TestSVMDenseRowsPath(t *testing.T) {
	d := datagen.DenseClassification("test", 15, 80, 40, 0.05)
	a := d.Rows()
	ref, err := SVM(a, d.B, SVMOptions{Lambda: 1, Iters: 3000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sa, err := SVM(a, d.B, SVMOptions{Lambda: 1, Iters: 3000, Seed: 1, S: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref.X {
		if math.Abs(sa.X[i]-ref.X[i]) > 1e-8*(1+math.Abs(ref.X[i])) {
			t.Fatalf("dense SA x[%d] mismatch", i)
		}
	}
}

func TestSVML2ConvergesFasterThanL1(t *testing.T) {
	// §VI: "SVM-L2 converges faster than SVM-L1 since the loss function is
	// smoothed". Compare duality gaps relative to their initial values
	// after the same iteration budget.
	a, b := svmProblem(16)
	iters := 6000
	l1, err := SVM(a, b, SVMOptions{Lambda: 1, Loss: SVML1, Iters: iters, Seed: 17, TrackEvery: iters})
	if err != nil {
		t.Fatal(err)
	}
	l2, err := SVM(a, b, SVMOptions{Lambda: 1, Loss: SVML2, Iters: iters, Seed: 17, TrackEvery: iters})
	if err != nil {
		t.Fatal(err)
	}
	// Both should have made progress; this is a soft expectation, so only
	// fail when L2 is dramatically worse, and log otherwise.
	if l2.Gap > 10*l1.Gap+1e-9 {
		t.Fatalf("L2 gap %v far worse than L1 gap %v", l2.Gap, l1.Gap)
	}
	t.Logf("gap after %d iters: L1=%.3e L2=%.3e", iters, l1.Gap, l2.Gap)
}

func TestSVMLossString(t *testing.T) {
	if SVML1.String() != "svm-l1" || SVML2.String() != "svm-l2" {
		t.Fatal("loss names")
	}
}

// thetaArraySVM is dualSVM with the correction sum it had before the
// moved-step list: θ_t of every step of the batch kept in an array, and
// step j summing over every t < j, skipping θ_t = 0. It is the oracle of
// TestSVMMovedStepsMatchThetaArray.
type thetaArraySVM struct {
	*dualSVM
	thetaStep []float64
}

func (s *thetaArraySVM) step(j int) bool {
	rows, g := s.d.bt.Idx, &s.d.gram
	i := rows[j]
	eta := g.At(j, j) + s.gamma
	dot := s.xP[j]
	for t := 0; t < j; t++ {
		if s.thetaStep[t] != 0 {
			dot += s.thetaStep[t] * s.b[rows[t]] * g.At(t, j)
		}
	}
	ai := s.alpha[i]
	grad := s.b[i]*dot - 1 + s.gamma*ai
	theta := 0.0
	if clip(ai-grad, 0, s.nu)-ai != 0 {
		theta = clip(ai-grad/eta, 0, s.nu) - ai
		if theta != 0 {
			s.alpha[i] += theta
			s.a.RowTAxpy(i, theta*s.b[i], s.x)
		}
	}
	s.thetaStep[j] = theta
	return theta != 0
}

// mixObserver counts the batches in which some steps moved α and some
// did not.
type mixObserver struct {
	countingObserver
	mixed int
	// counts at the start of the current batch
	steps0, moved0 int
}

func (o *mixObserver) BatchDone(h int, theta float64, state [][]float64) error {
	if moved := o.moved - o.moved0; moved > 0 && moved < o.steps-o.steps0 {
		o.mixed++
	}
	o.steps0, o.moved0 = o.steps, o.moved
	return o.countingObserver.BatchDone(h, theta, state)
}

func sameBitsVec(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", name, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d: %v != %v", name, i, got[i], want[i])
		}
	}
}

// TestSVMMovedStepsMatchThetaArray: the correction sum over the list of
// steps that moved keeps the bits of the sum over the θ array, for both
// losses and a warm start, at s = 1, 16 and 64, over batches in which
// some steps move and some do not, a final partial batch, and a Tol
// stop in mid-batch.
func TestSVMMovedStepsMatchThetaArray(t *testing.T) {
	a, b := svmProblem(14)
	warm := make([]float64, len(b))
	for i := range warm {
		warm[i] = float64(i%3) / 4
	}
	cases := []struct {
		name string
		opt  SVMOptions
	}{
		{"L1, partial last batch", SVMOptions{Lambda: 1, Iters: 1000, Seed: 3, TrackEvery: 100}},
		{"L2, partial last batch", SVMOptions{Lambda: 0.5, Loss: SVML2, Iters: 1000, Seed: 4, TrackEvery: 250}},
		{"L1, warm start", SVMOptions{Lambda: 1, Iters: 700, Seed: 5, Alpha0: warm}},
		{"L1, Tol stop", SVMOptions{Lambda: 1, Iters: 100000, Seed: 11, TrackEvery: 90, Tol: 1.0}},
	}
	for _, tc := range cases {
		for _, s := range []int{1, 16, 64} {
			opt := tc.opt
			opt.S = s
			name := fmt.Sprintf("%s, S=%d", tc.name, s)
			obs := &mixObserver{}
			st, err := NewSVMStepper(a, b, opt, nil, obs)
			if err != nil {
				t.Fatal(err)
			}
			got, err := st.Run()
			if err != nil {
				t.Fatal(err)
			}
			ost, err := NewSVMStepper(a, b, opt, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			ost.rec = &thetaArraySVM{dualSVM: ost.svm, thetaStep: make([]float64, s)}
			want, err := ost.Run()
			if err != nil {
				t.Fatal(err)
			}
			sameBitsVec(t, name+" X", got.X, want.X)
			sameBitsVec(t, name+" Alpha", got.Alpha, want.Alpha)
			if got.Iters != want.Iters || len(got.History) != len(want.History) ||
				math.Float64bits(got.Gap) != math.Float64bits(want.Gap) ||
				math.Float64bits(got.Primal) != math.Float64bits(want.Primal) ||
				math.Float64bits(got.Dual) != math.Float64bits(want.Dual) {
				t.Fatalf("%s: %d iterations, gap %v (%d points); the θ array: %d, %v (%d)",
					name, got.Iters, got.Gap, len(got.History), want.Iters, want.Gap, len(want.History))
			}
			for i := range got.History {
				if got.History[i] != want.History[i] {
					t.Fatalf("%s: history[%d] %+v != %+v", name, i, got.History[i], want.History[i])
				}
			}
			if s > 1 && obs.mixed == 0 {
				t.Fatalf("%s: no batch mixed moving and idle steps", name)
			}
			if opt.Tol > 0 && (got.Iters >= opt.Iters || got.Iters%s == 0 && s > 1) {
				t.Fatalf("%s: stopped after %d iterations, want a Tol stop inside a batch", name, got.Iters)
			}
			if opt.Tol == 0 && opt.Iters%s == 0 && s > 1 {
				t.Fatalf("%s: %d iterations fill every batch of %d", name, opt.Iters, s)
			}
		}
	}
}
