package dist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"time"

	"saco/internal/mpi"
	"saco/internal/rng"
	"saco/internal/stream"
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
	// starting fresh. With no checkpoint present anywhere the run
	// starts fresh — which replays the identical trajectory anyway.
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

// The .sack on-disk format, all little-endian:
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

var sackCRC = crc64.MakeTable(crc64.ECMA)

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
	n := 8 + 4 + 8 + 4 + 4 + 8 + 8 + (4*8 + 8 + 1) + (4*8 + 2*8) + 8 + 4
	for _, v := range ck.Vecs {
		n += 4 + 8*len(v)
	}
	n += 4 + len(ck.Trace)*(8+8+8) + 8
	buf := make([]byte, 0, n)
	le := binary.LittleEndian
	u32 := func(v uint32) { buf = le.AppendUint32(buf, v) }
	u64 := func(v uint64) { buf = le.AppendUint64(buf, v) }
	f64 := func(v float64) { buf = le.AppendUint64(buf, math.Float64bits(v)) }

	buf = append(buf, sackMagic...)
	u32(sackVersion)
	u64(fp)
	u32(uint32(rank))
	u32(uint32(size))
	u64(uint64(ck.Step))
	u64(uint64(ck.Batches))
	for _, w := range ck.Rng.S {
		u64(w)
	}
	f64(ck.Rng.Spare)
	if ck.Rng.HasSpare {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	f64(ck.Stats.Clock)
	f64(ck.Stats.CompTime)
	f64(ck.Stats.CommTime)
	f64(ck.Stats.Flops)
	u64(uint64(ck.Stats.Msgs))
	u64(uint64(ck.Stats.Words))
	f64(ck.Theta)
	u32(uint32(len(ck.Vecs)))
	for _, v := range ck.Vecs {
		u32(uint32(len(v)))
		for _, x := range v {
			f64(x)
		}
	}
	u32(uint32(len(ck.Trace)))
	for _, p := range ck.Trace {
		u64(uint64(p.Iter))
		f64(p.Seconds)
		f64(p.Value)
	}
	u64(crc64.Checksum(buf, sackCRC))
	return buf
}

// decodeCkpt validates and decodes a .sack image for the given
// configuration and rank. Any mismatch — magic, version, checksum,
// fingerprint, identity — is an error; callers treat corrupt slots as
// absent and fall back to the other slot.
func decodeCkpt(data []byte, fp uint64, rank, size int) (*rankCkpt, error) {
	le := binary.LittleEndian
	if len(data) < len(sackMagic)+4+8 || string(data[:8]) != sackMagic {
		return nil, errors.New("dist: not a checkpoint file")
	}
	body, tail := data[:len(data)-8], data[len(data)-8:]
	if crc64.Checksum(body, sackCRC) != le.Uint64(tail) {
		return nil, errors.New("dist: checkpoint checksum mismatch")
	}
	off := 8
	u32 := func() uint32 { v := le.Uint32(body[off:]); off += 4; return v }
	u64 := func() uint64 { v := le.Uint64(body[off:]); off += 8; return v }
	f64 := func() float64 { return math.Float64frombits(u64()) }
	// The CRC has validated the length implicitly, but keep the reads
	// bounded anyway: a truncated-then-rechecksummed file must not panic.
	need := func(n int) error {
		if off+n > len(body) {
			return errors.New("dist: truncated checkpoint")
		}
		return nil
	}
	if err := need(4 + 8 + 4 + 4 + 8 + 8 + 4*8 + 8 + 1 + 6*8 + 8 + 4); err != nil {
		return nil, err
	}
	if v := u32(); v != sackVersion {
		return nil, fmt.Errorf("dist: checkpoint version %d, want %d", v, sackVersion)
	}
	if got := u64(); got != fp {
		return nil, errors.New("dist: checkpoint is from a different solver configuration")
	}
	if r := int(u32()); r != rank {
		return nil, fmt.Errorf("dist: checkpoint belongs to rank %d, not %d", r, rank)
	}
	if s := int(u32()); s != size {
		return nil, fmt.Errorf("dist: checkpoint world size %d, want %d", s, size)
	}
	ck := &rankCkpt{Step: int(u64()), Batches: int(u64())}
	for i := range ck.Rng.S {
		ck.Rng.S[i] = u64()
	}
	ck.Rng.Spare = f64()
	ck.Rng.HasSpare = body[off] != 0
	off++
	ck.Stats.Clock = f64()
	ck.Stats.CompTime = f64()
	ck.Stats.CommTime = f64()
	ck.Stats.Flops = f64()
	ck.Stats.Msgs = int64(u64())
	ck.Stats.Words = int64(u64())
	ck.Theta = f64()
	nv := int(u32())
	ck.Vecs = make([][]float64, nv)
	for i := range ck.Vecs {
		if err := need(4); err != nil {
			return nil, err
		}
		l := int(u32())
		if err := need(8 * l); err != nil {
			return nil, err
		}
		v := make([]float64, l)
		for j := range v {
			v[j] = f64()
		}
		ck.Vecs[i] = v
	}
	if err := need(4); err != nil {
		return nil, err
	}
	nt := int(u32())
	if err := need(24 * nt); err != nil {
		return nil, err
	}
	ck.Trace = make([]TimedPoint, nt)
	for i := range ck.Trace {
		ck.Trace[i] = TimedPoint{Iter: int(u64()), Seconds: f64(), Value: f64()}
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

// loadSlot decodes one slot, nil when absent or invalid.
func (s *ckptSession) loadSlot(slot int) *rankCkpt {
	data, err := os.ReadFile(s.slotPath(slot))
	if err != nil {
		return nil
	}
	ck, err := decodeCkpt(data, s.fp, s.c.Rank(), s.c.Size())
	if err != nil {
		return nil
	}
	return ck
}

// resume agrees the world-wide restore point and returns this rank's
// checkpoint for it, nil for a fresh start. It is collective (one
// scalar allreduce, excluded from the modeled cost) and must run before
// the first solver iteration. The agreed step is the minimum of the
// ranks' newest steps: boundary drift is at most one save interval, so
// every rank still holds the minimum in one of its two slots.
func (s *ckptSession) resume() (*rankCkpt, error) {
	if s == nil || !s.cfg.Resume {
		return nil, nil
	}
	newest := -1
	var slots [2]*rankCkpt
	for i := 0; i < 2; i++ {
		slots[i] = s.loadSlot(i)
		if slots[i] != nil && slots[i].Step > newest {
			newest = slots[i].Step
		}
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
	if err := stream.WriteFileAtomic(path, encodeCkpt(s.fp, s.c.Rank(), s.c.Size(), &ck)); err != nil {
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
