package dist

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"saco/internal/mpi"
	"saco/internal/rng"
)

func sampleCkpt() *rankCkpt {
	return &rankCkpt{
		Step:    42,
		Batches: 7,
		Rng:     rng.State{S: [4]uint64{1, 2, 3, ^uint64(0)}, Spare: -0.25, HasSpare: true},
		Stats:   mpi.RankStats{Clock: 1.5, CompTime: 1.0, CommTime: 0.5, Flops: 1e6, Msgs: 12, Words: 3456},
		Theta:   0.03125,
		Vecs:    [][]float64{{1, -2, 3.5}, {}, {4e-300}},
		Trace:   []TimedPoint{{Iter: 10, Seconds: 0.1, Value: 9.5}, {Iter: 20, Seconds: 0.2, Value: 7.25}},
	}
}

func TestCkptCodecRoundTrip(t *testing.T) {
	fp := ckptFingerprint("cfg")
	want := sampleCkpt()
	data := encodeCkpt(fp, 2, 4, want)
	got, err := decodeCkpt(data, fp, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got.Step != want.Step || got.Batches != want.Batches ||
		got.Rng != want.Rng || got.Stats != want.Stats || got.Theta != want.Theta {
		t.Fatalf("scalars changed:\n got %+v\nwant %+v", got, want)
	}
	if len(got.Vecs) != len(want.Vecs) {
		t.Fatalf("%d vectors, want %d", len(got.Vecs), len(want.Vecs))
	}
	for i := range want.Vecs {
		if len(got.Vecs[i]) != len(want.Vecs[i]) {
			t.Fatalf("vec %d length %d, want %d", i, len(got.Vecs[i]), len(want.Vecs[i]))
		}
		for j := range want.Vecs[i] {
			if got.Vecs[i][j] != want.Vecs[i][j] {
				t.Fatalf("vec %d[%d] differs", i, j)
			}
		}
	}
	if len(got.Trace) != len(want.Trace) {
		t.Fatalf("%d trace points, want %d", len(got.Trace), len(want.Trace))
	}
	for i := range want.Trace {
		if got.Trace[i] != want.Trace[i] {
			t.Fatalf("trace[%d] = %+v, want %+v", i, got.Trace[i], want.Trace[i])
		}
	}
}

func TestCkptCodecRejectsMismatch(t *testing.T) {
	fp := ckptFingerprint("cfg")
	data := encodeCkpt(fp, 2, 4, sampleCkpt())
	cases := []struct {
		name string
		poke func([]byte) []byte
		fp   uint64
		rank int
		size int
	}{
		{"wrong fingerprint", nil, ckptFingerprint("other"), 2, 4},
		{"wrong rank", nil, fp, 3, 4},
		{"wrong size", nil, fp, 2, 8},
		{"flipped byte", func(d []byte) []byte { d[20] ^= 0x40; return d }, fp, 2, 4},
		{"truncated", func(d []byte) []byte { return d[:len(d)-5] }, fp, 2, 4},
		{"bad magic", func(d []byte) []byte { d[0] = 'X'; return d }, fp, 2, 4},
		{"empty", func(d []byte) []byte { return nil }, fp, 2, 4},
	}
	for _, tc := range cases {
		img := append([]byte(nil), data...)
		if tc.poke != nil {
			img = tc.poke(img)
		}
		if _, err := decodeCkpt(img, tc.fp, tc.rank, tc.size); err == nil {
			t.Fatalf("%s: decode accepted a bad image", tc.name)
		}
	}
}

func TestRestartBackoffDeterministicAndCapped(t *testing.T) {
	if RestartBackoff(1) != RestartBackoff(1) {
		t.Fatal("backoff is not deterministic")
	}
	prev := RestartBackoff(1)
	for n := 2; n <= 10; n++ {
		d := RestartBackoff(n)
		if d < prev {
			t.Fatalf("backoff shrank at attempt %d: %v < %v", n, d, prev)
		}
		prev = d
	}
	if RestartBackoff(50) != RestartBackoff(10) {
		t.Fatal("backoff not capped")
	}
}

// TestCkptSessionAgreesOnMinStep: ranks whose save boundaries drifted by
// one interval must agree on the newest step everyone holds, and each
// rank finds that step in one of its two slots.
func TestCkptSessionAgreesOnMinStep(t *testing.T) {
	dir := t.TempDir()
	cfg := &Checkpoint{Dir: dir, Every: 1, Resume: true}
	_, err := mpi.RunWorld(nil, 2, mpi.CrayXC30(), mpi.WorldOptions{}, func(c *mpi.Comm) error {
		s := newCkptSession(cfg, c, "cfg")
		// Rank 0 completes two boundaries, rank 1 three — the ≤ 1
		// interval drift the batch structure guarantees.
		for i := 1; i <= 2+c.Rank(); i++ {
			err := s.endBatch(10*i, func() rankCkpt {
				return rankCkpt{Vecs: [][]float64{{float64(c.Rank())}}}
			})
			if err != nil {
				return err
			}
		}
		s2 := newCkptSession(cfg, c, "cfg")
		ck, err := s2.resume()
		if err != nil {
			return err
		}
		if ck == nil || ck.Step != 20 {
			return fmt.Errorf("rank %d resumed %+v, want step 20", c.Rank(), ck)
		}
		if s2.batches != 2 {
			return fmt.Errorf("rank %d restored batch counter %d, want 2", c.Rank(), s2.batches)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCkptSessionFreshStartCases: resume falls back to a fresh start
// when any rank lacks a usable checkpoint — absent files or a
// fingerprint from a different solver configuration.
func TestCkptSessionFreshStartCases(t *testing.T) {
	for _, tc := range []struct {
		name   string
		config func(rank int) string
		save   func(rank int) bool
	}{
		{"one rank has no files", func(int) string { return "cfg" }, func(r int) bool { return r == 0 }},
		{"foreign fingerprint", func(r int) string { return fmt.Sprintf("cfg-%d", r) }, func(int) bool { return true }},
	} {
		dir := t.TempDir()
		_, err := mpi.RunWorld(nil, 2, mpi.CrayXC30(), mpi.WorldOptions{}, func(c *mpi.Comm) error {
			if tc.save(c.Rank()) {
				s := newCkptSession(&Checkpoint{Dir: dir, Every: 1}, c, tc.config(c.Rank()))
				err := s.endBatch(10, func() rankCkpt { return rankCkpt{} })
				if err != nil {
					return err
				}
			}
			// Every resuming rank fingerprints config "other"; saved files
			// either don't exist (rank 1) or don't match.
			s2 := newCkptSession(&Checkpoint{Dir: dir, Every: 1, Resume: true}, c, "other")
			ck, err := s2.resume()
			if err != nil {
				return err
			}
			if ck != nil {
				return fmt.Errorf("rank %d resumed %+v, want a fresh start", c.Rank(), ck)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
	}
}

// TestCkptSlotRotation: consecutive saves alternate between the two slot
// files, so a crash mid-save can never destroy the only good checkpoint.
func TestCkptSlotRotation(t *testing.T) {
	dir := t.TempDir()
	_, err := mpi.RunWorld(nil, 1, mpi.CrayXC30(), mpi.WorldOptions{}, func(c *mpi.Comm) error {
		var paths []string
		s := newCkptSession(&Checkpoint{Dir: dir, Every: 2, OnSave: func(i CheckpointInfo) {
			paths = append(paths, filepath.Base(i.Path))
		}}, c, "cfg")
		for i := 1; i <= 6; i++ {
			if err := s.endBatch(i, func() rankCkpt { return rankCkpt{} }); err != nil {
				return err
			}
		}
		// Every=2: batches 2, 4, 6 save, alternating slots.
		want := []string{"rank-0-b.sack", "rank-0-a.sack", "rank-0-b.sack"}
		if len(paths) != len(want) {
			return fmt.Errorf("%d saves %v, want %v", len(paths), paths, want)
		}
		for i := range want {
			if paths[i] != want[i] {
				return fmt.Errorf("save %d went to %s, want %s", i, paths[i], want[i])
			}
		}
		ents, err := os.ReadDir(dir)
		if err != nil {
			return err
		}
		if len(ents) != 2 {
			return fmt.Errorf("%d files on disk, want the two slots", len(ents))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
