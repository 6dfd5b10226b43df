package mpi

import (
	"context"
	"fmt"
	"net"
	"time"
)

// WorldOptions configures an in-process world run beyond the rank count
// and machine model. The zero value is the plain simulated world with
// sequential ranks.
type WorldOptions struct {
	// Cores is the per-rank core budget, the hybrid MPI×threads
	// configuration: kernels may run on that many shared-memory workers
	// (dist.Options.RankWorkers) and work charged through
	// ComputeParallel / ComputeBlockedParallel advances the virtual
	// clock by flops/cores. Communication costs are unchanged — one
	// message per rank pair, like a one-rank-per-node MPI+OpenMP layout.
	// Values below 1 mean one core.
	Cores int
	// TCP, when non-nil, runs the world over a loopback TCP mesh
	// instead of the simulated channel world, with the given transport
	// options (zero fields take the DialTCP defaults). The rendezvous
	// listens on an ephemeral loopback port.
	TCP *TCPOptions
	// Wrap, when non-nil, wraps each rank's transport endpoint before
	// the rank program runs. It is the fault-injection seam
	// (internal/mpi/faulty interposes kill/drop/delay faults here) and
	// works for any other interposer (tracing, traffic capture). The
	// returned Transport must delegate Rank and Size faithfully.
	Wrap func(rank int, t Transport) Transport
}

// RunWorld executes body — the SPMD program, as under mpirun — on p
// ranks within this process, over either the simulated channel world or
// a loopback TCP mesh (opt.TCP); both carry the same message DAG and
// piggybacked clocks, so a deterministic program's results and modeled
// stats are bitwise identical across them. The first error returned by
// any rank aborts the run's result; ranks blocked on a failed peer fail
// fast with a *PeerError (none is left blocked on a vanished peer), and
// the root-cause error is preferred over the induced peer errors.
func RunWorld(ctx context.Context, p int, m Machine, opt WorldOptions, body func(c *Comm) error) (*Stats, error) {
	if p <= 0 {
		return nil, fmt.Errorf("mpi: RunWorld with p=%d", p)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	cores := opt.Cores
	if cores < 1 {
		cores = 1
	}
	var dial func(rank int) (Transport, error)
	if opt.TCP != nil {
		// Reserve the rendezvous port before any rank dials: bind the
		// listener here and hand it to rank 0, so peers never race it.
		topt := *opt.TCP
		var lc net.ListenConfig
		ln, err := lc.Listen(ctx, "tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("mpi: RunWorld listen: %w", err)
		}
		addr := ln.Addr().String()
		if topt.RendezvousTimeout <= 0 {
			if d, ok := ctx.Deadline(); ok {
				if left := time.Until(d); left > 0 {
					topt.RendezvousTimeout = left
				}
			}
		}
		dial = func(rank int) (Transport, error) {
			if rank == 0 {
				return bootTCPRoot(ctx, ln, p, &topt)
			}
			return DialTCP(ctx, rank, p, addr, &topt)
		}
	} else {
		w := newSimWorld(ctx, p)
		dial = func(rank int) (Transport, error) {
			return w.transport(rank), nil
		}
	}
	if wrap := opt.Wrap; wrap != nil {
		inner := dial
		dial = func(rank int) (Transport, error) {
			t, err := inner(rank)
			if err != nil {
				return nil, err
			}
			return wrap(rank, t), nil
		}
	}
	return runWorld(p, cores, m, body, dial)
}
