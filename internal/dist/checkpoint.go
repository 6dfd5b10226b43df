package dist

import (
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"time"

	"saco/internal/mpi"
	"saco/internal/rng"
	"saco/internal/wire"
)

// Checkpoint configures deterministic rank checkpointing: at s-step
// outer-batch boundaries — the communication-free points the paper's
// batching creates — every rank serializes its full solver state
// (iterate vectors, RNG cursor, virtual clock and traffic counters,
// rank 0's trace) to a versioned, CRC-checked .sack file, so a lost
// rank rejoins with a trajectory bitwise identical to an uninterrupted
// run. Each rank alternates between two slot files and the resume path
// agrees on the newest step every rank still holds (boundary drift
// across ranks is at most one save interval — a rank can only pass a
// boundary once every rank has contributed to the previous one), so a
// kill at any instant leaves a consistent world-wide restore point.
type Checkpoint struct {
	// Dir is the directory holding the rank-<r>-<slot>.sack files.
	// Every rank of one run must see the same logical directory (shared
	// or per-process local storage both work: ranks only read their own
	// files).
	Dir string
	// Every is the save interval in outer batches (each covering up to
	// s inner iterations); values below 1 mean every batch.
	Every int
	// Resume loads the agreed checkpoint before iterating instead of
	// starting fresh. With no usable checkpoint on some rank (absent,
	// torn or corrupt) the run starts fresh — which replays the
	// identical trajectory anyway. A slot written by another run (an
	// intact image of another configuration, rank or world size) counts
	// as absent next to one of this run's; a rank whose every intact
	// slot is another run's fails the resume with a
	// *CheckpointMismatchError. A fresh run (Resume unset) removes its
	// rank's slots before it iterates, so its own restarts meet only
	// its own checkpoints.
	Resume bool
	// MaxRestarts lets the in-process drivers (Lasso, SVM, *From)
	// re-run the world from the latest checkpoints when a rank is lost
	// (mpi.PeerError): up to this many recovery attempts, each after a
	// deterministic backoff. 0 keeps the historical fail-fast behavior.
	// Multi-process deployments supervise per process in cmd/sarank
	// instead.
	MaxRestarts int
	// OnSave, when non-nil, observes every completed save — the hook
	// the health surface uses to publish checkpoint progress. Called on
	// the rank's own goroutine after the file is durably published.
	OnSave func(CheckpointInfo)
}

func (ck *Checkpoint) every() int {
	if ck.Every < 1 {
		return 1
	}
	return ck.Every
}

// CheckpointInfo describes one completed checkpoint save. The JSON
// names are the contract of cmd/sarank's /checkpoint endpoint.
type CheckpointInfo struct {
	Rank    int    `json:"rank"`    // the saving rank
	Step    int    `json:"step"`    // inner iterations completed at the boundary
	Batches int    `json:"batches"` // outer batches completed
	Path    string `json:"path"`    // the published .sack file
}

// The .sack on-disk format, all little-endian, encoded and decoded
// through internal/wire:
//
//	8  magic "SACKPT1\n"
//	u32 version
//	u64 fingerprint   FNV-1a of the solver configuration (see ckptFingerprint)
//	u32 rank, u32 size
//	u64 step          inner iterations completed
//	u64 batches       outer batches completed
//	4×u64 + f64 + u8  RNG cursor (xoshiro words, polar spare, has-spare)
//	4×f64 + 2×u64     RankStats: clock, comp, comm, flops, msgs, words
//	f64 theta         acceleration parameter (0 when unused)
//	u32 nvec { u32 len, len×f64 }  solver vectors in a solver-fixed order
//	u32 ntrace { u64 iter, f64 seconds, f64 value }  rank 0's trace
//	u64 CRC-64/ECMA over everything above
const (
	sackMagic   = "SACKPT1\n"
	sackVersion = 1
)

// rankCkpt is one rank's decoded solver state at an s-step boundary.
type rankCkpt struct {
	Step    int
	Batches int
	Rng     rng.State
	Stats   mpi.RankStats
	Theta   float64
	Vecs    [][]float64
	Trace   []TimedPoint
}

// ckptFingerprint hashes the solver configuration that must match
// between the saving and the resuming run: dimensions, world size, and
// every option that shapes the trajectory. A checkpoint from a
// different configuration is rejected, not silently misapplied.
func ckptFingerprint(config string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(config)) //nolint:errcheck // hash.Hash.Write never fails
	return h.Sum64()
}

func encodeCkpt(fp uint64, rank, size int, ck *rankCkpt) []byte {
	n := 160 + 24*len(ck.Trace) // fixed fields, trace and trailer; vectors below
	for _, v := range ck.Vecs {
		n += 4 + 8*len(v)
	}
	w := wire.Writer{B: make([]byte, 0, n)}
	w.Bytes([]byte(sackMagic))
	w.U32(sackVersion)
	w.U64(fp)
	w.U32(uint32(rank))
	w.U32(uint32(size))
	w.U64(uint64(ck.Step))
	w.U64(uint64(ck.Batches))
	for _, s := range ck.Rng.S {
		w.U64(s)
	}
	w.F64(ck.Rng.Spare)
	if ck.Rng.HasSpare {
		w.U8(1)
	} else {
		w.U8(0)
	}
	w.F64(ck.Stats.Clock)
	w.F64(ck.Stats.CompTime)
	w.F64(ck.Stats.CommTime)
	w.F64(ck.Stats.Flops)
	w.U64(uint64(ck.Stats.Msgs))
	w.U64(uint64(ck.Stats.Words))
	w.F64(ck.Theta)
	w.U32(uint32(len(ck.Vecs)))
	for _, v := range ck.Vecs {
		w.U32(uint32(len(v)))
		w.F64s(v)
	}
	w.U32(uint32(len(ck.Trace)))
	for _, p := range ck.Trace {
		w.U64(uint64(p.Iter))
		w.F64(p.Seconds)
		w.F64(p.Value)
	}
	return wire.CRC64.Seal(w.B)
}

// CheckpointMismatchError refuses a resume from an intact checkpoint
// slot (its CRC-64 checks out) written by another run: another format
// version, solver configuration, rank or world size. Resuming past it
// would start from iteration zero and overwrite the slot, so the resume
// fails before anything is written.
type CheckpointMismatchError struct {
	Path  string // the slot file
	Field string // "version", "fingerprint", "rank" or "size"
	Err   error  // the *wire.Error saying how it differs
}

func (e *CheckpointMismatchError) Error() string {
	return fmt.Sprintf("dist: checkpoint %s is from another run (%v); resume with the options that wrote it or remove it", e.Path, e.Err)
}

func (e *CheckpointMismatchError) Unwrap() error { return e.Err }

// decodeCkpt validates and decodes a .sack image for the given
// configuration and rank. Any mismatch — magic, version, checksum,
// fingerprint, identity — is an error. A torn or corrupt image is a
// *wire.Error (callers treat it as an absent slot); an intact one from
// another run is a *CheckpointMismatchError without its Path.
func decodeCkpt(data []byte, fp uint64, rank, size int) (*rankCkpt, error) {
	if len(data) < len(sackMagic) || string(data[:len(sackMagic)]) != sackMagic {
		return nil, errors.New("dist: not a checkpoint file")
	}
	body, err := wire.CRC64.Open(".sack", data)
	if err != nil {
		return nil, err
	}
	r := wire.NewReader(".sack", body)
	r.Bytes("magic", len(sackMagic))
	if v := r.U32("version"); v != sackVersion {
		r.Fail("version", "%d, want %d", v, sackVersion)
	}
	if r.U64("fingerprint") != fp {
		r.Fail("fingerprint", "from a different solver configuration")
	}
	if v := r.U32("rank"); int(v) != rank {
		r.Fail("rank", "belongs to rank %d, not %d", v, rank)
	}
	if v := r.U32("size"); int(v) != size {
		r.Fail("size", "world size %d, want %d", v, size)
	}
	if we, ok := r.Err().(*wire.Error); ok {
		return nil, &CheckpointMismatchError{Field: we.Field, Err: we}
	}
	ck := &rankCkpt{Step: int(r.U64("step")), Batches: int(r.U64("batches"))}
	for i := range ck.Rng.S {
		ck.Rng.S[i] = r.U64("rng state")
	}
	ck.Rng.Spare = r.F64("rng spare")
	switch r.U8("rng has-spare") {
	case 0:
	case 1:
		ck.Rng.HasSpare = true
	default:
		r.Fail("rng has-spare", "not 0 or 1")
	}
	ck.Stats = mpi.RankStats{Clock: r.F64("clock"), CompTime: r.F64("comp"), CommTime: r.F64("comm"),
		Flops: r.F64("flops"), Msgs: int64(r.U64("msgs")), Words: int64(r.U64("words"))}
	ck.Theta = r.F64("theta")
	ck.Vecs = make([][]float64, r.Count("nvec", uint64(r.U32("nvec")), 4))
	for i := range ck.Vecs {
		ck.Vecs[i] = make([]float64, r.Count("vec len", uint64(r.U32("vec len")), 8))
		r.F64s("vec", ck.Vecs[i])
	}
	ck.Trace = make([]TimedPoint, r.Count("ntrace", uint64(r.U32("ntrace")), 24))
	for i := range ck.Trace {
		ck.Trace[i] = TimedPoint{Iter: int(r.U64("iter")), Seconds: r.F64("seconds"), Value: r.F64("value")}
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return ck, nil
}

// ckptSession drives one rank's checkpointing through a solve: slot
// rotation on save, world-wide step agreement on resume.
type ckptSession struct {
	cfg     *Checkpoint
	c       *mpi.Comm
	fp      uint64
	batches int // outer batches completed (restored on resume)
}

// newCkptSession returns nil when checkpointing is off — every method
// is nil-safe, so solver bodies call unconditionally.
func newCkptSession(cfg *Checkpoint, c *mpi.Comm, config string) *ckptSession {
	if cfg == nil {
		return nil
	}
	return &ckptSession{cfg: cfg, c: c, fp: ckptFingerprint(config)}
}

func (s *ckptSession) slotPath(slot int) string {
	name := fmt.Sprintf("rank-%d-%c.sack", s.c.Rank(), 'a'+byte(slot))
	return filepath.Join(s.cfg.Dir, name)
}

// loadSlot decodes one slot, nil when absent, torn or corrupt. An
// intact slot from another run is a *CheckpointMismatchError.
func (s *ckptSession) loadSlot(slot int) (*rankCkpt, error) {
	path := s.slotPath(slot)
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil
	}
	ck, err := decodeCkpt(data, s.fp, s.c.Rank(), s.c.Size())
	var me *CheckpointMismatchError
	if errors.As(err, &me) {
		me.Path = path
		return nil, me
	}
	return ck, nil
}

// resume agrees the world-wide restore point and returns this rank's
// checkpoint for it, nil for a fresh start. It is collective (one
// scalar allreduce, excluded from the modeled cost) and must run before
// the first solver iteration. The agreed step is the minimum of the
// ranks' newest steps: boundary drift is at most one save interval, so
// every rank still holds the minimum in one of its two slots. Without
// Resume it removes this rank's slots instead: whatever an earlier run
// left there is not this run's to resume from.
func (s *ckptSession) resume() (*rankCkpt, error) {
	if s == nil {
		return nil, nil
	}
	if !s.cfg.Resume {
		for i := 0; i < 2; i++ {
			if err := os.Remove(s.slotPath(i)); err != nil && !errors.Is(err, os.ErrNotExist) {
				return nil, fmt.Errorf("dist: rank %d clearing an earlier run's checkpoint: %w", s.c.Rank(), err)
			}
		}
		return nil, nil
	}
	newest := -1
	var slots [2]*rankCkpt
	var foreign error
	for i := 0; i < 2; i++ {
		var err error
		if slots[i], err = s.loadSlot(i); err != nil {
			foreign = err
		}
		if slots[i] != nil && slots[i].Step > newest {
			newest = slots[i].Step
		}
	}
	if foreign != nil && slots[0] == nil && slots[1] == nil {
		return nil, foreign
	}
	// min over ranks == -max over ranks of the negated steps; Mark/
	// Restore keeps the agreement out of the modeled clocks (resumed
	// ranks overwrite their stats from the checkpoint anyway, but a
	// fresh-start agreement must be cost-free too).
	mark := s.c.Mark()
	agreed, err := s.c.AllreduceScalar(mpi.Max, -float64(newest))
	s.c.Restore(mark)
	if err != nil {
		return nil, err
	}
	target := int(-agreed)
	if target < 0 {
		// Some rank has no usable checkpoint: everyone starts fresh,
		// which replays the identical trajectory from iteration zero.
		return nil, nil
	}
	for _, ck := range slots {
		if ck != nil && ck.Step == target {
			s.batches = ck.Batches
			return ck, nil
		}
	}
	return nil, fmt.Errorf("dist: rank %d holds no checkpoint for agreed step %d (slots drifted more than one interval — was Checkpoint.Every changed between runs?)", s.c.Rank(), target)
}

// endBatch marks an outer-batch boundary after h inner iterations and
// saves at the configured interval. snap must capture the solver state
// exactly as the next batch would find it; vectors are serialized
// immediately, so callers may pass live buffers.
func (s *ckptSession) endBatch(h int, snap func() rankCkpt) error {
	if s == nil {
		return nil
	}
	s.batches++
	every := s.cfg.every()
	if s.batches%every != 0 {
		return nil
	}
	ck := snap()
	ck.Step = h
	ck.Batches = s.batches
	slot := (s.batches / every) % 2
	path := s.slotPath(slot)
	if err := wire.WriteFile(path, encodeCkpt(s.fp, s.c.Rank(), s.c.Size(), &ck)); err != nil {
		return fmt.Errorf("dist: rank %d checkpoint at step %d: %w", s.c.Rank(), h, err)
	}
	if s.cfg.OnSave != nil {
		s.cfg.OnSave(CheckpointInfo{Rank: s.c.Rank(), Step: h, Batches: s.batches, Path: path})
	}
	return nil
}

// restoreVecs copies a checkpoint's vectors back into the solver's live
// buffers, in the solver-fixed order they were saved in.
func restoreVecs(ck *rankCkpt, dst ...[]float64) error {
	if len(ck.Vecs) != len(dst) {
		return fmt.Errorf("dist: checkpoint holds %d vectors, solver expects %d", len(ck.Vecs), len(dst))
	}
	for i, v := range ck.Vecs {
		if len(v) != len(dst[i]) {
			return fmt.Errorf("dist: checkpoint vector %d has length %d, solver expects %d", i, len(v), len(dst[i]))
		}
		copy(dst[i], v)
	}
	return nil
}

// Recoverable reports whether err is a peer-loss failure a supervised
// run may recover from by rebuilding the world and resuming from the
// agreed checkpoint — any *mpi.PeerError: a vanished peer, a torn
// connection, a starved receive deadline. Configuration and data errors
// are not recoverable.
func Recoverable(err error) bool {
	var pe *mpi.PeerError
	return errors.As(err, &pe)
}

// RestartBackoff returns the deterministic wait before recovery attempt
// n (1-based): 100ms·2^(n−1) capped at 2s. Exported so cmd/sarank's
// per-process supervision paces identically to the in-process driver.
func RestartBackoff(attempt int) time.Duration {
	d := 100 * time.Millisecond
	for i := 1; i < attempt && d < 2*time.Second; i++ {
		d *= 2
	}
	if d > 2*time.Second {
		d = 2 * time.Second
	}
	return d
}

// runRecoverable executes the world, re-running it with Resume set when
// a rank is lost and the checkpoint policy allows recovery. mk builds
// the SPMD body against the (possibly resume-flagged) options, so the
// solver sees the attempt's own view.
func (o Options) runRecoverable(mk func(Options) func(c *mpi.Comm) error) (*mpi.Stats, error) {
	stats, err := o.run(mk(o))
	if err == nil || o.Checkpoint == nil {
		return stats, err
	}
	for attempt := 1; attempt <= o.Checkpoint.MaxRestarts && Recoverable(err); attempt++ {
		time.Sleep(RestartBackoff(attempt))
		ro := o
		ck := *o.Checkpoint
		ck.Resume = true
		ro.Checkpoint = &ck
		stats, err = ro.run(mk(ro))
	}
	return stats, err
}
