// Package mpi is a small message-passing runtime that stands in for MPI in
// the paper's experiments. The point-to-point layer is the Transport
// interface with two implementations: the simulated world (ranks are
// goroutines, messages are Go channels, so a "cluster" runs inside one
// process with real parallelism and real synchronization costs) and a
// length-prefixed TCP mesh that runs the same SPMD programs across real
// processes and machines (see transportTCP, DialTCP, cmd/sarank). The
// collectives are binomial trees written once against Comm, so both
// transports execute identical message DAGs and deterministic programs
// produce bitwise-identical trajectories on either.
//
// Alongside real execution the runtime maintains a virtual clock per rank
// in an α-β-γ machine model (see Machine). Every message advances the
// sender's and receiver's clocks by α + β·words; every Compute call
// advances the caller's clock by γ·flops. The maximum clock over ranks is
// the modeled parallel running time — the quantity Figures 3 and 4 of the
// paper plot. This is how a 12,288-core Cray XC30 experiment is reproduced
// faithfully in shape on a laptop: the counts of messages, words and flops
// are exact, and the machine constants are presets. Networked runs charge
// the same model (piggybacking clocks on the wire); their measured time is
// Stats.Wall.
package mpi

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// RankStats is the per-rank accounting of one run.
type RankStats struct {
	Clock    float64 // virtual seconds: total modeled time of this rank
	CompTime float64 // virtual seconds spent computing
	CommTime float64 // virtual seconds in messaging (transfer + wait)
	Flops    float64 // flops charged
	Msgs     int64   // messages sent
	Words    int64   // 8-byte words sent
}

// Stats summarizes a completed run. The single-process driver (RunWorld)
// fills PerRank for the whole world; a rank running
// alone in its own process (cmd/sarank over DialTCP) only knows itself,
// so PerRank holds just the local rank and Local is true.
type Stats struct {
	PerRank []RankStats
	Wall    time.Duration // real elapsed time of the run
	// Local marks stats that cover only the local rank (multi-process
	// runs): the Max* aggregates are then per-rank numbers, and wall
	// clock is the meaningful cross-rank measure.
	Local bool
}

// MaxClock returns the modeled parallel running time: the maximum virtual
// clock over ranks (the critical path through the message DAG).
func (s *Stats) MaxClock() float64 {
	var m float64
	for _, r := range s.PerRank {
		if r.Clock > m {
			m = r.Clock
		}
	}
	return m
}

// MaxComm returns the largest per-rank communication time. The paper's
// Fig. 4e–h communication speedups are ratios of this quantity.
func (s *Stats) MaxComm() float64 {
	var m float64
	for _, r := range s.PerRank {
		if r.CommTime > m {
			m = r.CommTime
		}
	}
	return m
}

// MaxComp returns the largest per-rank computation time.
func (s *Stats) MaxComp() float64 {
	var m float64
	for _, r := range s.PerRank {
		if r.CompTime > m {
			m = r.CompTime
		}
	}
	return m
}

// TotalMsgs returns the total number of messages sent by all ranks.
func (s *Stats) TotalMsgs() int64 {
	var n int64
	for _, r := range s.PerRank {
		n += r.Msgs
	}
	return n
}

// TotalWords returns the total number of words sent by all ranks.
func (s *Stats) TotalWords() int64 {
	var n int64
	for _, r := range s.PerRank {
		n += r.Words
	}
	return n
}

// Comm is one rank's handle into the world: cost accounting and the
// collectives over an underlying Transport. All methods are called from
// that rank's goroutine only.
type Comm struct {
	t       Transport
	machine Machine
	cores   int
	st      RankStats
	seq     int       // collective sequence number (SPMD-aligned)
	one     []float64 // scratch for scalar reductions
}

// NewComm wraps an established transport endpoint in a Comm charging
// the given machine model with a per-rank core budget of cores (clamped
// to at least 1). It is the entry point for external transports — a
// cmd/sarank process wraps its DialTCP endpoint here; the in-process
// driver (RunWorld) calls it for every rank goroutine.
func NewComm(t Transport, m Machine, cores int) *Comm {
	if cores < 1 {
		cores = 1
	}
	return &Comm{t: t, machine: m, cores: cores}
}

// Rank returns this rank's id in [0, Size).
func (c *Comm) Rank() int { return c.t.Rank() }

// Size returns the number of ranks.
func (c *Comm) Size() int { return c.t.Size() }

// Machine returns the cost model in effect.
func (c *Comm) Machine() Machine { return c.machine }

// Elapsed returns this rank's virtual clock in seconds.
func (c *Comm) Elapsed() float64 { return c.st.Clock }

// RankStats returns a snapshot of this rank's cost accounting — the
// per-rank entry a single-process driver aggregates, and all a
// multi-process rank can know about the run.
func (c *Comm) RankStats() RankStats { return c.st }

// SetRankStats overwrites this rank's cost accounting. It exists for
// checkpoint restore: a resumed rank installs the virtual clock and
// traffic counters it had at the checkpointed s-step boundary, so the
// recovered run's modeled stats are bitwise identical to an
// uninterrupted run's.
func (c *Comm) SetRankStats(st RankStats) { c.st = st }

// runWorld drives one single-process world: it spawns p rank
// goroutines, each over its own transport endpoint, runs body as the
// SPMD program, and aggregates per-rank statistics. dial is called on
// the rank's goroutine (TCP endpoints bootstrap concurrently).
func runWorld(p, cores int, m Machine, body func(c *Comm) error, dial func(rank int) (Transport, error)) (*Stats, error) {
	errs := make([]error, p)
	stats := make([]RankStats, p)
	start := time.Now() //saco:nolint nondet wall-clock harness stat (Stats.Wall) only; modeled time comes from the costmodel clocks piggybacked on frames
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			t, err := dial(rank)
			if err != nil {
				errs[rank] = err
				return
			}
			// A close failure on an otherwise-clean rank is a real
			// error (leaked socket, peer torn down mid-frame): record
			// it so firstError can surface it instead of silently
			// swallowing the teardown.
			defer func() {
				if cerr := t.Close(); cerr != nil && errs[rank] == nil {
					errs[rank] = fmt.Errorf("mpi: rank %d: closing transport: %w", rank, cerr)
				}
			}()
			comm := NewComm(t, m, cores)
			errs[rank] = body(comm)
			stats[rank] = comm.st
		}(r)
	}
	wg.Wait()
	all := &Stats{PerRank: stats, Wall: time.Since(start)}
	return all, firstError(errs)
}

// firstError picks the error a failed run reports: the lowest-rank
// error that is not an induced peer failure, falling back to the
// lowest-rank error of any kind. When one rank fails mid-collective its
// peers abort with *PeerError; the root cause is the interesting one.
func firstError(errs []error) error {
	var peer error
	for _, err := range errs {
		if err == nil {
			continue
		}
		var pe *PeerError
		if errors.As(err, &pe) {
			if peer == nil {
				peer = err
			}
			continue
		}
		return err
	}
	return peer
}

// Send transfers a copy of data to rank dst with the given tag (the
// transport owns the copy, so callers may reuse buffers freely). The
// sender's clock advances by α + β·len(data): sends are not overlapped,
// matching the non-offloaded MPI the paper benchmarks. A vanished peer
// returns a *PeerError instead of blocking.
func (c *Comm) Send(dst, tag int, data []float64) error {
	m := c.machine
	cost := m.Alpha + m.Beta*float64(len(data))
	c.st.Clock += cost
	c.st.CommTime += cost
	c.st.Msgs++
	c.st.Words += int64(len(data))
	return c.t.Send(dst, Message{Tag: tag, Clock: c.st.Clock, Data: data})
}

// Recv blocks until the next message from src arrives and returns its
// payload. The receiver's clock advances to at least the message's arrival
// time (sender completion), so waiting is charged as communication. A
// mismatched tag fails fast with a *PeerError naming both ranks (a
// mismatched SPMD program, caught instead of silently misdelivered), as
// does a peer that vanished without sending.
func (c *Comm) Recv(src, tag int) ([]float64, error) {
	msg, err := c.t.Recv(src)
	if err != nil {
		var pe *PeerError
		if errors.As(err, &pe) && pe.Op == "recv" {
			pe.Tag = tag // stamp the expected tag for the error message
		}
		return nil, err
	}
	if msg.Tag != tag {
		return nil, &PeerError{Rank: c.Rank(), Peer: src, Op: "recv", Tag: tag,
			Err: fmt.Errorf("%w: expected tag %d, got %d", ErrTagMismatch, tag, msg.Tag)}
	}
	before := c.st.Clock
	if msg.Clock > c.st.Clock {
		c.st.Clock = msg.Clock
	}
	c.st.CommTime += c.st.Clock - before
	return msg.Data, nil
}

// Compute charges flops of local work at the streaming (BLAS-1 / sparse)
// rate. The caller performs the actual arithmetic itself; Compute only
// advances the virtual clock.
func (c *Comm) Compute(flops float64) {
	t := flops * c.machine.GammaStream
	c.st.Clock += t
	c.st.CompTime += t
	c.st.Flops += flops
}

// ComputeParallel charges flops of kernel work that fans out across the
// rank's core budget: the full flops are counted as work performed, but
// the clock advances by only flops/cores at the streaming rate. Use it
// for the data-parallel kernels (Gram assembly over the owned block,
// batched products, residual updates); redundant per-rank scalar work
// (the µ×µ eigensolve, the prox step) stays on Compute.
func (c *Comm) ComputeParallel(flops float64) {
	t := flops / float64(c.cores) * c.machine.GammaStream
	c.st.Clock += t
	c.st.CompTime += t
	c.st.Flops += flops
}

// ComputeBlockedParallel charges flops of blocked (BLAS-3-like) work
// with the given working set across the rank's core budget: flops/cores
// at the blocked rate, or at the streaming rate when the working set
// exceeds the machine's cache — the cache knee behind the paper's
// observation that computation speedups of SA vanish for very large s.
// The working set is not divided — the cores cooperate on one shared
// block, as the pool's partitioned Gram kernels do.
func (c *Comm) ComputeBlockedParallel(flops float64, workingSetWords int) {
	t := flops / float64(c.cores) * c.machine.gammaFor(true, workingSetWords)
	c.st.Clock += t
	c.st.CompTime += t
	c.st.Flops += flops
}

// StatsMark is a snapshot of a rank's cost accounting, used with Restore
// to exclude instrumentation (objective tracking, convergence checks) from
// the modeled time and traffic of a solver run. All ranks must mark and
// restore around the same collective sequence to stay consistent.
type StatsMark struct{ st RankStats }

// Mark snapshots this rank's cost state.
func (c *Comm) Mark() StatsMark { return StatsMark{st: c.st} }

// Restore rewinds this rank's cost state to a snapshot.
func (c *Comm) Restore(m StatsMark) { c.st = m.st }

// BlockRange splits n items over p ranks as evenly as possible and returns
// the half-open range owned by rank r. The first n%p ranks receive one
// extra item. It is the 1D partitioner used for both the row-partitioned
// Lasso layout and the column-partitioned SVM layout.
func BlockRange(n, p, r int) (lo, hi int) {
	base := n / p
	rem := n % p
	lo = r*base + min(r, rem)
	hi = lo + base
	if r < rem {
		hi++
	}
	return lo, hi
}
