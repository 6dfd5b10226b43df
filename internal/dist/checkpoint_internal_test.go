package dist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"saco/internal/core"
	"saco/internal/mpi"
	"saco/internal/rng"
	"saco/internal/wire"
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
	assertCkptEqual(t, got, want)
}

// TestCkptReadsOlderBuilds: testdata/rank-2-a.sack is sampleCkpt() as
// rank 2 of 4 under configuration "cfg", written by the encoder that
// predates internal/wire. It must decode to the same fields and
// re-encode to the same bytes, so a restart across an upgrade resumes.
func TestCkptReadsOlderBuilds(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "rank-2-a.sack"))
	if err != nil {
		t.Fatal(err)
	}
	fp := ckptFingerprint("cfg")
	got, err := decodeCkpt(data, fp, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	assertCkptEqual(t, got, sampleCkpt())
	if back := encodeCkpt(fp, 2, 4, got); !bytes.Equal(back, data) {
		t.Fatalf("re-encoded checkpoint differs from the stored image:\n got  %x\n want %x", back, data)
	}
}

// TestCkptFingerprintPinned: a .sack names its run by the hash of the
// solver's configuration string, so editing lassoConfig's or svmConfig's
// format — dropping a field, renaming one, adding an option — orphans
// every checkpoint an earlier build wrote. The hashes below are what
// every build since the strings took this form computes; a new option
// that shapes the trajectory must extend the string in a way that leaves
// every old run's text, and so these values, unchanged.
func TestCkptFingerprintPinned(t *testing.T) {
	lasso := core.LassoOptions{Lambda: 0.125, Iters: 1000, S: 16, BlockSize: 8, Seed: 7, TrackEvery: 100, Accelerated: true}
	svm := core.SVMOptions{Lambda: 0.5, Loss: core.SVML2, Iters: 3000, S: 64, Seed: 7, Tol: 1e-6, TrackEvery: 500}
	for _, tc := range []struct {
		name, config string
		want         uint64
	}{
		{"lasso", lassoConfig(4, &lasso, 300, 2477), 0x4876ab6246af1b36},
		{"svm", svmConfig(4, &svm, 300, 2477), 0x18031fdc58616af8},
	} {
		if got := ckptFingerprint(tc.config); got != tc.want {
			t.Errorf("%s fingerprint %#016x, want %#016x (config %q): checkpoints of earlier builds would no longer resume",
				tc.name, got, tc.want, tc.config)
		}
	}
}

func assertCkptEqual(t *testing.T, got, want *rankCkpt) {
	t.Helper()
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

// FuzzDecodeCkpt: a checkpoint slot is read back after a crash, so its
// bytes are hostile. The fuzzed input is an image without its CRC, which
// the target appends — the corruption worth finding is the kind a valid
// checksum does not catch. No input may panic, a refusal must not
// allocate in proportion to a header field (the vector count once sized
// a 384 MB make from a 157-byte file), and an accepted image must
// re-encode to exactly itself.
func FuzzDecodeCkpt(f *testing.F) {
	fp := ckptFingerprint("cfg")
	good := encodeCkpt(fp, 2, 4, sampleCkpt())
	f.Add(good[:len(good)-8])
	// No vectors and no trace: the body ends with nvec then ntrace.
	empty := encodeCkpt(fp, 2, 4, &rankCkpt{})
	huge := empty[:len(empty)-8]
	binary.LittleEndian.PutUint32(huge[len(huge)-8:], 1<<24)
	f.Add(huge)
	f.Fuzz(func(t *testing.T, body []byte) {
		img := wire.CRC64.Seal(append([]byte(nil), body...))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ck, err := decodeCkpt(img, fp, 2, 4)
		runtime.ReadMemStats(&after)
		if err != nil {
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
				t.Fatalf("refusing a %d-byte checkpoint allocated %d bytes: %v", len(img), grew, err)
			}
			return
		}
		if back := encodeCkpt(fp, 2, 4, ck); !bytes.Equal(back, img) {
			t.Fatalf("accepted checkpoint re-encodes differently:\n got  %x\n want %x", back, img)
		}
	})
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
// when any rank lacks a usable checkpoint — absent files, or a slot torn
// or corrupted on disk, which counts as absent.
func TestCkptSessionFreshStartCases(t *testing.T) {
	for _, tc := range []struct {
		name string
		save func(rank int) bool
		poke func(data []byte) []byte // applied to rank 1's saved slot
	}{
		{"one rank has no files", func(r int) bool { return r == 0 }, nil},
		{"a torn slot", func(int) bool { return true }, func(d []byte) []byte { return d[:len(d)/2] }},
		{"a corrupt slot", func(int) bool { return true }, func(d []byte) []byte { d[len(d)/2] ^= 1; return d }},
	} {
		dir := t.TempDir()
		_, err := mpi.RunWorld(nil, 2, mpi.CrayXC30(), mpi.WorldOptions{}, func(c *mpi.Comm) error {
			if tc.save(c.Rank()) {
				s := newCkptSession(&Checkpoint{Dir: dir, Every: 1}, c, "cfg")
				err := s.endBatch(10, func() rankCkpt { return rankCkpt{} })
				if err != nil {
					return err
				}
				if c.Rank() == 1 && tc.poke != nil {
					path := s.slotPath(1)
					data, err := os.ReadFile(path)
					if err != nil {
						return err
					}
					if err := os.WriteFile(path, tc.poke(data), 0o644); err != nil {
						return err
					}
				}
			}
			s2 := newCkptSession(&Checkpoint{Dir: dir, Every: 1, Resume: true}, c, "cfg")
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

// TestCkptSessionRefusesForeignSlot: an intact slot from another run —
// another configuration, rank or world size — fails the resume with a
// *CheckpointMismatchError naming the file and the field, on every rank
// and before any save could overwrite it.
func TestCkptSessionRefusesForeignSlot(t *testing.T) {
	for _, tc := range []struct {
		field  string
		config string
		img    func(rank int) []byte // slot a's image
	}{
		{"version", "cfg", func(r int) []byte {
			img := encodeCkpt(ckptFingerprint("cfg"), r, 2, &rankCkpt{})
			body := img[:len(img)-8]
			binary.LittleEndian.PutUint32(body[len(sackMagic):], sackVersion+1)
			return wire.CRC64.Seal(body)
		}},
		{"fingerprint", "other", func(r int) []byte { return encodeCkpt(ckptFingerprint("cfg"), r, 2, &rankCkpt{}) }},
		{"rank", "cfg", func(r int) []byte { return encodeCkpt(ckptFingerprint("cfg"), 1-r, 2, &rankCkpt{}) }},
		{"size", "cfg", func(r int) []byte { return encodeCkpt(ckptFingerprint("cfg"), r, 3, &rankCkpt{}) }},
	} {
		dir := t.TempDir()
		_, err := mpi.RunWorld(nil, 2, mpi.CrayXC30(), mpi.WorldOptions{}, func(c *mpi.Comm) error {
			s := newCkptSession(&Checkpoint{Dir: dir, Every: 1, Resume: true}, c, tc.config)
			path := s.slotPath(0)
			if err := os.WriteFile(path, tc.img(c.Rank()), 0o644); err != nil {
				return err
			}
			ck, err := s.resume()
			var me *CheckpointMismatchError
			if !errors.As(err, &me) || me.Path != path || me.Field != tc.field || ck != nil {
				return fmt.Errorf("rank %d: resume = %+v, %v; want a *CheckpointMismatchError for %s field %s", c.Rank(), ck, err, path, tc.field)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.field, err)
		}
	}
}

// TestCkptSessionSkipsForeignNextToOwn: a slot from another run next to
// one of this run's — a reused directory whose run saved once before it
// was resumed — counts as absent: every rank resumes from its own slot.
func TestCkptSessionSkipsForeignNextToOwn(t *testing.T) {
	dir := t.TempDir()
	_, err := mpi.RunWorld(nil, 2, mpi.CrayXC30(), mpi.WorldOptions{}, func(c *mpi.Comm) error {
		s := newCkptSession(&Checkpoint{Dir: dir, Every: 1, Resume: true}, c, "cfg")
		foreign := encodeCkpt(ckptFingerprint("other"), c.Rank(), 2, &rankCkpt{Step: 30})
		if err := os.WriteFile(s.slotPath(0), foreign, 0o644); err != nil {
			return err
		}
		if err := s.endBatch(10, func() rankCkpt { return rankCkpt{} }); err != nil { // slot b
			return err
		}
		ck, err := newCkptSession(&Checkpoint{Dir: dir, Every: 1, Resume: true}, c, "cfg").resume()
		if err != nil || ck == nil || ck.Step != 10 {
			return fmt.Errorf("rank %d: resume = %+v, %v; want this run's step 10", c.Rank(), ck, err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCkptSessionFreshRunClearsSlots: a run that does not resume removes
// its rank's slots before it iterates, another run's and its own
// configuration's alike, and leaves other ranks' files alone.
func TestCkptSessionFreshRunClearsSlots(t *testing.T) {
	dir := t.TempDir()
	other := filepath.Join(dir, "rank-7-a.sack")
	if err := os.WriteFile(other, []byte("not ours"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := mpi.RunWorld(nil, 2, mpi.CrayXC30(), mpi.WorldOptions{}, func(c *mpi.Comm) error {
		s := newCkptSession(&Checkpoint{Dir: dir, Every: 1}, c, "cfg")
		if err := os.WriteFile(s.slotPath(0), encodeCkpt(ckptFingerprint("other"), c.Rank(), 2, &rankCkpt{}), 0o644); err != nil {
			return err
		}
		if err := os.WriteFile(s.slotPath(1), encodeCkpt(s.fp, c.Rank(), 2, &rankCkpt{}), 0o644); err != nil {
			return err
		}
		if ck, err := s.resume(); ck != nil || err != nil {
			return fmt.Errorf("rank %d: fresh resume = %+v, %v; want a fresh start", c.Rank(), ck, err)
		}
		for i := 0; i < 2; i++ {
			if _, err := os.Stat(s.slotPath(i)); !errors.Is(err, os.ErrNotExist) {
				return fmt.Errorf("rank %d: slot %d after a fresh start: %v, want it removed", c.Rank(), i, err)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(other); err != nil {
		t.Fatalf("another rank's file: %v", err)
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
