// Kill-and-restart bitwise parity: the acceptance test of the
// checkpoint/restart layer. A rank killed at a chosen operation and
// recovered from its checkpoint must finish with a trajectory — solution,
// objective, every traced point, the per-rank modeled cost counters —
// bitwise identical to the uninterrupted run, on every transport of the
// backend matrix.
package dist_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"
	"testing"

	"saco/internal/core"
	"saco/internal/datagen"
	"saco/internal/dist"
	"saco/internal/mpi"
	"saco/internal/mpi/faulty"
	"saco/internal/testmatrix"
)

const restartParityP = 4

func restartLassoOpts(acc bool) core.LassoOptions {
	return core.LassoOptions{
		Lambda: 0.4, BlockSize: 3, Iters: 90, S: 6,
		Accelerated: acc, Seed: 7, TrackEvery: 18,
	}
}

func sameLasso(t *testing.T, label string, got, want *dist.LassoResult) {
	t.Helper()
	testmatrix.SameFloats(t, label+" X", got.X, want.X)
	if got.Objective != want.Objective {
		t.Fatalf("%s: objective %.17g != %.17g", label, got.Objective, want.Objective)
	}
	sameTrace(t, label, got.Trace, want.Trace)
	samePerRank(t, label, got.Stats, want.Stats)
}

func sameTrace(t *testing.T, label string, got, want []dist.TimedPoint) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d trace points, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: trace[%d] = %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

func samePerRank(t *testing.T, label string, got, want *mpi.Stats) {
	t.Helper()
	if len(got.PerRank) != len(want.PerRank) {
		t.Fatalf("%s: %d ranks, want %d", label, len(got.PerRank), len(want.PerRank))
	}
	for r := range want.PerRank {
		if got.PerRank[r] != want.PerRank[r] {
			t.Fatalf("%s: rank %d modeled stats\n got %+v\nwant %+v",
				label, r, got.PerRank[r], want.PerRank[r])
		}
	}
}

// calibrateSends runs a clean injector over the same configuration and
// returns how many Send calls the victim rank makes — the yardstick for
// "kill a quarter / half / three quarters of the way through".
func calibrateSends(t *testing.T, victim int, run func(cl dist.Options) error, cl dist.Options) int64 {
	t.Helper()
	cal := faulty.New(faulty.Plan{Rank: victim})
	cl.WrapTransport = cal.Wrap
	cl.Checkpoint = nil
	if err := run(cl); err != nil {
		t.Fatalf("calibration run failed: %v", err)
	}
	if cal.Sends() == 0 {
		t.Fatal("calibration observed no sends")
	}
	return cal.Sends()
}

func TestLassoKillRestartBitwise(t *testing.T) {
	d := datagen.Regression("restart", 5, 160, 80, 0.15, 6, 0.05)
	a := d.AsCSR()
	for _, acc := range []bool{false, true} {
		opt := restartLassoOpts(acc)
		// Uninterrupted reference, no checkpointing at all.
		ref, err := dist.Lasso(a, d.B, opt, dist.Options{P: restartParityP})
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range testmatrix.TransportKinds() {
			base := dist.Options{P: restartParityP, Transport: tr}
			run := func(cl dist.Options) error {
				_, err := dist.Lasso(a, d.B, opt, cl)
				return err
			}

			// Checkpointing must be a pure observer: enabling it without
			// any fault leaves the trajectory bitwise unchanged. OnSave
			// fires on every rank goroutine, hence the atomic counter.
			var saves atomic.Int64
			cl := base
			cl.Checkpoint = &dist.Checkpoint{
				Dir: t.TempDir(), Every: 1,
				OnSave: func(dist.CheckpointInfo) { saves.Add(1) },
			}
			clean, err := dist.Lasso(a, d.B, opt, cl)
			if err != nil {
				t.Fatalf("acc=%v %v: checkpointed run failed: %v", acc, tr, err)
			}
			sameLasso(t, tr.String()+" checkpoint-observer", clean, ref)
			if saves.Load() == 0 {
				t.Fatalf("acc=%v %v: no checkpoints were saved", acc, tr)
			}

			sends := calibrateSends(t, 1, run, base)
			// Kill rank 1 before its first checkpoint (fresh-start
			// recovery), near the middle, and near the end.
			for _, at := range []int{2, int(sends / 2), int(3 * sends / 4)} {
				in := faulty.New(faulty.Plan{Rank: 1, KillAtSend: at})
				cl := base
				cl.WrapTransport = in.Wrap
				cl.Checkpoint = &dist.Checkpoint{Dir: t.TempDir(), Every: 2, MaxRestarts: 2}
				got, err := dist.Lasso(a, d.B, opt, cl)
				if err != nil {
					t.Fatalf("acc=%v %v kill@%d: recovery failed: %v", acc, tr, at, err)
				}
				if !in.Fired() {
					t.Fatalf("acc=%v %v kill@%d: fault never fired", acc, tr, at)
				}
				sameLasso(t, tr.String()+" killed+restarted", got, ref)
			}
		}
	}
}

func TestSVMKillRestartBitwise(t *testing.T) {
	d := datagen.Classification("restartsvm", 11, 140, 60, 0.2, 0.05)
	a := d.AsCSR()
	opt := core.SVMOptions{Lambda: 1, Iters: 80, S: 5, Seed: 3, TrackEvery: 20}
	ref, err := dist.SVM(a, d.B, opt, dist.Options{P: restartParityP})
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range testmatrix.TransportKinds() {
		base := dist.Options{P: restartParityP, Transport: tr}
		sends := calibrateSends(t, 2, func(cl dist.Options) error {
			_, err := dist.SVM(a, d.B, opt, cl)
			return err
		}, base)

		in := faulty.New(faulty.Plan{Rank: 2, KillAtRecv: int(sends / 2)})
		cl := base
		cl.WrapTransport = in.Wrap
		cl.Checkpoint = &dist.Checkpoint{Dir: t.TempDir(), Every: 1, MaxRestarts: 2}
		got, err := dist.SVM(a, d.B, opt, cl)
		if err != nil {
			t.Fatalf("%v: recovery failed: %v", tr, err)
		}
		if !in.Fired() {
			t.Fatalf("%v: fault never fired", tr)
		}
		testmatrix.SameFloats(t, "X", got.X, ref.X)
		testmatrix.SameFloats(t, "Alpha", got.Alpha, ref.Alpha)
		if got.Primal != ref.Primal || got.Dual != ref.Dual || got.Gap != ref.Gap {
			t.Fatalf("%v: objectives (%.17g, %.17g, %.17g) != (%.17g, %.17g, %.17g)",
				tr, got.Primal, got.Dual, got.Gap, ref.Primal, ref.Dual, ref.Gap)
		}
		sameTrace(t, tr.String(), got.Trace, ref.Trace)
		samePerRank(t, tr.String(), got.Stats, ref.Stats)
	}
}

// TestKillWithoutCheckpointStillFails: without a checkpoint policy the
// historical fail-fast contract holds — a lost rank surfaces as a
// recoverable error, but nothing retries.
func TestKillWithoutCheckpointStillFails(t *testing.T) {
	d := datagen.Regression("restartff", 5, 80, 40, 0.2, 4, 0.05)
	in := faulty.New(faulty.Plan{Rank: 1, KillAtSend: 5})
	_, err := dist.Lasso(d.AsCSR(), d.B, restartLassoOpts(false),
		dist.Options{P: 2, WrapTransport: in.Wrap})
	if err == nil {
		t.Fatal("killed run succeeded without a checkpoint policy")
	}
	if !dist.Recoverable(err) {
		t.Fatalf("kill surfaced as %v, want a recoverable peer loss", err)
	}
}

// TestResumeRefusesChangedOptions: a resume whose options differ from
// the run that wrote the checkpoints (λ at 0.2·λmax instead of 0.1·λmax)
// fails with a *dist.CheckpointMismatchError naming a slot file and the
// fingerprint, and leaves every slot byte for byte as it was, on every
// transport, instead of starting over and overwriting them.
func TestResumeRefusesChangedOptions(t *testing.T) {
	d := datagen.Regression("ckptmismatch", 5, 80, 40, 0.2, 4, 0.05)
	a := d.AsCSR()
	lmax := core.LambdaMaxL1(a.ToCSC(), d.B)
	opt := restartLassoOpts(false)
	for _, tr := range testmatrix.TransportKinds() {
		dir := t.TempDir()
		opt.Lambda = 0.1 * lmax
		cl := dist.Options{P: 2, Transport: tr, Checkpoint: &dist.Checkpoint{Dir: dir, Every: 1}}
		if _, err := dist.Lasso(a, d.B, opt, cl); err != nil {
			t.Fatal(err)
		}
		slots, err := filepath.Glob(filepath.Join(dir, "*.sack"))
		if err != nil || len(slots) != 4 {
			t.Fatalf("%v: slots %v (%v), want two per rank", tr, slots, err)
		}
		before := make(map[string][]byte)
		for _, p := range slots {
			if before[p], err = os.ReadFile(p); err != nil {
				t.Fatal(err)
			}
		}

		opt.Lambda = 0.2 * lmax
		cl.Checkpoint = &dist.Checkpoint{Dir: dir, Every: 1, Resume: true}
		_, err = dist.Lasso(a, d.B, opt, cl)
		var me *dist.CheckpointMismatchError
		if !errors.As(err, &me) || me.Field != "fingerprint" || !slices.Contains(slots, me.Path) {
			t.Fatalf("%v: resume with another λ = %v, want a *CheckpointMismatchError naming a slot's fingerprint", tr, err)
		}
		for p, want := range before {
			if got, err := os.ReadFile(p); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("%v: the refused resume changed %s (%v)", tr, p, err)
			}
		}
	}
}

// TestRestartOverAnotherRunsCheckpoints: a run that reuses a checkpoint
// directory — another run, at λ = 0.1·λmax, left both slots of every
// rank there — and loses a rank before its own second save, so before
// it could have replaced both of them, recovers with the bits of an
// uninterrupted run, on every transport. Rank 1 is killed before its
// first save and again right after it.
func TestRestartOverAnotherRunsCheckpoints(t *testing.T) {
	d := datagen.Regression("ckptreuse", 5, 80, 40, 0.2, 4, 0.05)
	a := d.AsCSR()
	lmax := core.LambdaMaxL1(a.ToCSC(), d.B)
	earlier, opt := restartLassoOpts(false), restartLassoOpts(false)
	earlier.Lambda, opt.Lambda = 0.1*lmax, 0.2*lmax
	ref, err := dist.Lasso(a, d.B, opt, dist.Options{P: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range testmatrix.TransportKinds() {
		base := dist.Options{P: 2, Transport: tr}
		// Rank 1's sends up to its first save.
		cal := faulty.New(faulty.Plan{Rank: 1})
		var firstSave atomic.Int64
		cl := base
		cl.WrapTransport = cal.Wrap
		cl.Checkpoint = &dist.Checkpoint{Dir: t.TempDir(), Every: 1, OnSave: func(info dist.CheckpointInfo) {
			if info.Rank == 1 && info.Batches == 1 {
				firstSave.Store(cal.Sends())
			}
		}}
		if _, err := dist.Lasso(a, d.B, opt, cl); err != nil || firstSave.Load() == 0 {
			t.Fatalf("%v: calibration run: %v, first save after %d sends", tr, err, firstSave.Load())
		}
		for _, at := range []int{1, int(firstSave.Load()) + 1} {
			dir := t.TempDir()
			cl := base
			cl.Checkpoint = &dist.Checkpoint{Dir: dir, Every: 1}
			if _, err := dist.Lasso(a, d.B, earlier, cl); err != nil {
				t.Fatal(err)
			}
			in := faulty.New(faulty.Plan{Rank: 1, KillAtSend: at})
			cl.WrapTransport = in.Wrap
			cl.Checkpoint = &dist.Checkpoint{Dir: dir, Every: 1, MaxRestarts: 2}
			got, err := dist.Lasso(a, d.B, opt, cl)
			if err != nil {
				t.Fatalf("%v kill@%d: recovery over another run's checkpoints failed: %v", tr, at, err)
			}
			if !in.Fired() {
				t.Fatalf("%v kill@%d: fault never fired", tr, at)
			}
			sameLasso(t, tr.String()+" restarted over another run's checkpoints", got, ref)
		}
	}
}
