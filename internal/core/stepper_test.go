package core

import "testing"

// countingObserver counts the driver's events and touches nothing.
type countingObserver struct {
	batches, steps, moved, begins, ends, tracked, done int
	lastH                                              int
}

func (o *countingObserver) BatchSampled(bt *Batch) error {
	o.batches++
	return nil
}

func (o *countingObserver) StepDone(bt *Batch, j int, moved bool) {
	o.steps++
	if moved {
		o.moved++
	}
}

func (o *countingObserver) BeginMeasure()        { o.begins++ }
func (o *countingObserver) EndMeasure()          { o.ends++ }
func (o *countingObserver) Tracked(int, float64) { o.tracked++ }
func (o *countingObserver) BatchDone(h int, _ float64, _ [][]float64) error {
	o.done++
	o.lastH = h
	return nil
}

// check asserts the event counts of a solve of iters iterations in
// batches of s, tracked every track.
func (o *countingObserver) check(t *testing.T, name string, iters, s, track int) {
	t.Helper()
	s = max(1, s)
	outer := (iters + s - 1) / s
	// One measurement per track point plus the final objective.
	if o.batches != outer || o.done != outer || o.steps != iters || o.lastH != iters ||
		o.tracked != iters/track || o.begins != o.tracked+1 || o.ends != o.begins {
		t.Fatalf("%s: observer saw %+v, want %d batches of %d steps in total", name, *o, outer, iters)
	}
}

// TestObserverIsPure solves with and without an observer attached and
// asserts bitwise-equal results: the seam package dist hangs its cost
// model, traces and checkpoints on cannot steer the solve.
func TestObserverIsPure(t *testing.T) {
	a, b, lambda := testProblem(6)
	for _, acc := range []bool{false, true} {
		for _, s := range []int{0, 1, 16} {
			opt := LassoOptions{Lambda: lambda, BlockSize: 4, Iters: 150, S: s, Accelerated: acc, Seed: 3, TrackEvery: 30}
			want, err := Lasso(a, b, opt)
			if err != nil {
				t.Fatal(err)
			}
			obs := &countingObserver{}
			st, err := NewLassoStepper(a, b, opt, nil, obs)
			if err != nil {
				t.Fatal(err)
			}
			got, err := st.Run()
			if err != nil {
				t.Fatal(err)
			}
			sameFloats(t, "X", got.X, want.X)
			if got.Objective != want.Objective || len(got.History) != len(want.History) {
				t.Fatalf("acc=%v S=%d: observed objective %v (%d points) != %v (%d points)",
					acc, s, got.Objective, len(got.History), want.Objective, len(want.History))
			}
			for i := range got.History {
				if got.History[i] != want.History[i] {
					t.Fatalf("acc=%v S=%d: history[%d] %+v != %+v", acc, s, i, got.History[i], want.History[i])
				}
			}
			obs.check(t, "lasso", opt.Iters, s, opt.TrackEvery)
			if obs.moved != opt.Iters {
				t.Fatalf("lasso steps always move: %d of %d", obs.moved, opt.Iters)
			}
		}
	}

	ra, rb := svmProblem(6)
	for _, s := range []int{0, 1, 16} {
		opt := SVMOptions{Lambda: 1, Iters: 600, S: s, Seed: 3, TrackEvery: 100}
		want, err := SVM(ra, rb, opt)
		if err != nil {
			t.Fatal(err)
		}
		obs := &countingObserver{}
		st, err := NewSVMStepper(ra, rb, opt, nil, obs)
		if err != nil {
			t.Fatal(err)
		}
		got, err := st.Run()
		if err != nil {
			t.Fatal(err)
		}
		sameFloats(t, "X", got.X, want.X)
		sameFloats(t, "Alpha", got.Alpha, want.Alpha)
		if got.Gap != want.Gap || got.Primal != want.Primal || got.Dual != want.Dual {
			t.Fatalf("S=%d: observed objectives (%v,%v,%v) != (%v,%v,%v)",
				s, got.Primal, got.Dual, got.Gap, want.Primal, want.Dual, want.Gap)
		}
		for i := range got.History {
			if got.History[i] != want.History[i] {
				t.Fatalf("S=%d: history[%d] differs", s, i)
			}
		}
		obs.check(t, "svm", opt.Iters, s, opt.TrackEvery)
		if obs.moved == 0 || obs.moved == opt.Iters {
			t.Fatalf("svm: %d of %d steps moved, want some but not all", obs.moved, opt.Iters)
		}
	}
}

// TestClassicalLassoAllocatesNothingPerIteration pins the s = 1 batch to
// its buffers: sampling, the 8×8 Gram, the block eigenvalue and the
// hoisted products all reuse solver-owned scratch, so doubling the
// iteration count must not add a single allocation.
func TestClassicalLassoAllocatesNothingPerIteration(t *testing.T) {
	a, b, lambda := testProblem(7)
	for _, acc := range []bool{false, true} {
		allocs := func(iters int) float64 {
			opt := LassoOptions{Lambda: lambda, BlockSize: 8, S: 1, Iters: iters, Accelerated: acc, Seed: 5}
			return testing.AllocsPerRun(3, func() {
				if _, err := Lasso(a, b, opt); err != nil {
					t.Fatal(err)
				}
			})
		}
		if short, long := allocs(200), allocs(400); long != short {
			t.Fatalf("accelerated=%v: %v allocations at 200 iterations, %v at 400", acc, short, long)
		}
	}
}
