// Package dist runs the paper's distributed solvers over the transports
// of internal/mpi: the simulated cluster (goroutine ranks, recursive-doubling
// collectives and an α-β-γ cost model standing in for the Cray XC30 of
// the evaluation) or a real TCP mesh (Options.Transport; cmd/sarank runs
// one rank per process). Both modes run identical message DAGs, so
// deterministic configurations produce bitwise-identical trajectories.
//
// The layouts follow §IV/§VI of the paper exactly: Lasso partitions rows
// of A across ranks (Fig. 1) and keeps the iterate x replicated; SVM
// partitions columns and keeps the dual α replicated. The solvers
// themselves live in package core, written once in the batched
// synchronization-avoiding form with the classical algorithm as the
// s = 1 case: a rank runs core's batch driver over its block of A and
// plugs into its seam (rank.go) — a Reducer that sums the local Gram and
// hoisted products with one Allreduce per outer step, and an Observer
// that charges the α-β-γ model, stamps the trace with modeled seconds and
// checkpoints at batch boundaries. This package holds only what is
// distributed: block loading, message packing, the cost formulas, the
// Allreduce choice, checkpoint/restart and the primal gather. No update
// arithmetic is repeated here, so at P = 1 a run is core's, bit for bit
// (core_parity_test.go), and across P trajectories differ only by the
// reduction-tree roundoff the paper's Table III quantifies.
//
// Coordinate selection uses the replicated-seed discipline (§III): every
// rank owns an identically seeded generator, so sampled blocks agree with
// zero communication; the Gram travels as its packed upper triangle
// (footnote 3).
package dist

import (
	"context"
	"fmt"

	"saco/internal/mat"
	"saco/internal/mpi"
)

// Transport selects how a solver run executes its ranks.
type Transport int

const (
	// TransportSim runs ranks as goroutines over the in-process
	// simulated world — the default, and the reference for every
	// deterministic trajectory in the test suite.
	TransportSim Transport = iota
	// TransportTCP runs ranks as goroutines connected through a real
	// loopback TCP mesh: the same process count, but every message
	// crosses the kernel's network stack. Bitwise-identical results to
	// TransportSim; used to validate the networked path (multi-process
	// clusters use cmd/sarank instead).
	TransportTCP
)

// String names the transport as it appears in flags and the ROADMAP
// backend matrix.
func (t Transport) String() string {
	switch t {
	case TransportTCP:
		return "tcp"
	default:
		return "sim"
	}
}

// Options configures a distributed solver run.
type Options struct {
	// P is the rank count.
	P int
	// Transport selects the execution mode: TransportSim (default) or
	// TransportTCP (loopback sockets).
	Transport Transport
	// Ctx cancels an in-flight run: ranks blocked in communication
	// return a *mpi.PeerError wrapping the context error. Nil means
	// context.Background().
	Ctx context.Context
	// Machine is the α-β-γ cost model; the zero value defaults to the
	// paper's Cray XC30.
	Machine mpi.Machine
	// RankWorkers is the per-rank core budget for hybrid rank×thread
	// runs (MPI×threads, the paper's natural extension): each simulated
	// rank runs its matrix kernels on up to this many shared-memory
	// executors (internal/runtime's work rule decides), and the cost model charges parallelizable
	// kernel flops at flops/RankWorkers. Worker invariance of the
	// kernels keeps iterates bitwise identical to the single-core run;
	// only the modeled time changes. 0 or 1 keeps ranks sequential.
	RankWorkers int
	// Checkpoint enables deterministic rank checkpointing and restart;
	// nil disables it (the historical behavior).
	Checkpoint *Checkpoint
	// WrapTransport, when non-nil, decorates every rank's transport
	// before the world forms — the fault-injection seam
	// (internal/mpi/faulty) and any other interposition layer.
	WrapTransport func(rank int, t mpi.Transport) mpi.Transport
}

func (o Options) withDefaults() (Options, error) {
	if o.P <= 0 {
		return o, fmt.Errorf("dist: P=%d, want a positive rank count", o.P)
	}
	if o.Machine.Name == "" {
		o.Machine = mpi.CrayXC30()
	}
	if o.RankWorkers < 1 {
		o.RankWorkers = 1
	}
	return o, nil
}

// run executes body as the SPMD program on the configured transport.
func (o Options) run(body func(c *mpi.Comm) error) (*mpi.Stats, error) {
	wopt := mpi.WorldOptions{Cores: o.RankWorkers, Wrap: o.WrapTransport}
	if o.Transport == TransportTCP {
		wopt.TCP = &mpi.TCPOptions{}
	}
	return mpi.RunWorld(o.Ctx, o.P, o.Machine, wopt, body)
}

// TimedPoint is one convergence measurement stamped with the modeled
// time (rank 0's virtual clock) at which it was taken.
type TimedPoint struct {
	Iter    int
	Seconds float64
	Value   float64 // objective (Lasso) or duality gap (SVM)
}

// LassoResult is the outcome of a simulated distributed Lasso solve.
type LassoResult struct {
	// X is the solution vector (replicated, so exact on every rank).
	X []float64
	// Objective is ½‖A·X − b‖² + g(X) at the final iterate.
	Objective float64
	// Trace holds objective measurements stamped with modeled seconds
	// (TrackEvery > 0). Instrumentation cost is excluded from the clock.
	Trace []TimedPoint
	// Iters is the number of inner iterations performed.
	Iters int
	// Stats is the per-rank cost accounting of the run.
	Stats *mpi.Stats
}

// ModeledSeconds returns the modeled parallel running time: the maximum
// virtual clock over ranks.
func (r *LassoResult) ModeledSeconds() float64 { return r.Stats.MaxClock() }

// SVMResult is the outcome of a simulated distributed SVM solve.
type SVMResult struct {
	// X is the assembled primal weight vector (gathered onto rank 0).
	X []float64
	// Alpha is the dual solution (replicated).
	Alpha []float64
	// Primal, Dual and Gap are the final objective values.
	Primal, Dual, Gap float64
	// Trace holds duality-gap measurements stamped with modeled seconds.
	Trace []TimedPoint
	// Iters is the number of dual updates performed (early stop on Tol
	// counts partial work).
	Iters int
	// Stats is the per-rank cost accounting of the run.
	Stats *mpi.Stats
}

// ModeledSeconds returns the modeled parallel running time.
func (r *SVMResult) ModeledSeconds() float64 { return r.Stats.MaxClock() }

// packGram packs the Gram matrix's upper triangle row-wise plus extra
// vectors into buf for one Allreduce and returns the packed word count.
func packGram(g *mat.Dense, extras [][]float64, buf []float64) int {
	k := g.R
	w := 0
	for i := 0; i < k; i++ {
		w += copy(buf[w:], g.Data[i*k+i:(i+1)*k])
	}
	for _, e := range extras {
		w += copy(buf[w:], e)
	}
	return w
}

// unpackGram is the inverse of packGram: the reduced upper triangle goes
// back into g's upper triangle and the extras are split back out. g's
// strict lower triangle keeps the local Gram's (+0); no reader looks
// at it.
func unpackGram(buf []float64, g *mat.Dense, extras [][]float64) {
	k := g.R
	w := 0
	for i := 0; i < k; i++ {
		copy(g.Data[i*k+i:(i+1)*k], buf[w:])
		w += k - i
	}
	for _, e := range extras {
		copy(e, buf[w:])
		w += len(e)
	}
}
