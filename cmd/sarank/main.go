// Command sarank runs ONE rank of a distributed solve as its own OS
// process, connected to its peers over the TCP transport: the
// one-rank-per-process deployment of the same SPMD solver bodies the
// in-process drivers run as goroutines. Every process is started with
// identical flags except -rank; rank 0 listens at the rendezvous
// address and the others dial it (retrying, so start order does not
// matter). Trajectories are bitwise identical to the simulated backend:
// rank 0's "final objective" line byte-matches sasolve's.
//
// A 4-rank loopback CA-Lasso cluster:
//
//	for r in 0 1 2 3; do
//	  sarank -rank $r -size 4 -addr 127.0.0.1:7171 \
//	    -task lasso -data train.svm -lambda-frac 0.1 -mu 4 -s 8 -iters 2000 &
//	done; wait
//
// Multi-machine clusters additionally set -listen (a reachable
// interface for the mesh) and, behind NAT, -advertise.
//
// Long runs add the operational flags: -ckpt-dir makes every rank save
// its solver state to CRC-checked .sack files at s-step boundaries,
// -max-restarts lets survivors rejoin at a higher epoch and resume from
// the agreed checkpoint when a peer is lost, a replacement process is
// started with the same flags plus -resume, and -health serves the
// shared internal/ops routes (/healthz, /readyz, /metrics, behind its
// fixed read/header/idle limits) plus /checkpoint for the supervisor.
// Recovery is exact: the resumed trajectory is bitwise identical to an
// uninterrupted run.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"saco"
	"saco/cmd/internal/cli"
	"saco/internal/dist"
	"saco/internal/mpi"
	"saco/internal/mpi/faulty"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole program behind cli.Main's testable seam. The
// in-process cluster tests call it once per rank on its own goroutine.
func run(args []string, stdout, stderr io.Writer) int {
	var o options
	return cli.Main("sarank", args, stderr, o.bind, func([]string) error { return o.solve(stdout, stderr) })
}

// options is the parsed command line: the problem (cli.Spec, shared
// with sasolve) and what is sarank's own — this rank's place in the
// mesh, checkpointing and supervision, the health surface, the fault
// drill.
type options struct {
	cli.Spec
	rank, size              int
	addr, listen, advertise string
	timeout                 time.Duration
	ckptDir, health         string
	ckptEvery, maxRestarts  int
	resume                  bool
	faultKillSend           int
}

func (o *options) bind(fs *flag.FlagSet) {
	o.Spec.Bind(fs, "lasso", "svm")
	// The problem flags mean what they mean to sasolve; four carry a note
	// for whoever starts one process per rank.
	fs.Lookup("data").Usage = "LIBSVM input file (required; every rank reads it and slices its own block)"
	fs.Lookup("seed").Usage = "sampling seed (must match across ranks: draws are replicated)"
	fs.Lookup("track").Usage = "trace convergence every N iterations (rank 0 prints it)"
	fs.Lookup("machine").Usage = "cost model charged to the virtual clocks: cray, ethernet, spark"
	fs.IntVar(&o.rank, "rank", -1, "this process's rank in [0, size) (required)")
	fs.IntVar(&o.size, "size", 0, "world size: total number of rank processes (required)")
	fs.StringVar(&o.addr, "addr", "", "rendezvous address; rank 0 listens on it, peers dial it (required)")
	fs.StringVar(&o.listen, "listen", "", "mesh listen address of a non-root rank (default 127.0.0.1:0; set a reachable interface for multi-machine runs)")
	fs.StringVar(&o.advertise, "advertise", "", "mesh address published to peers (default: the listener's own; set behind NAT)")
	fs.DurationVar(&o.timeout, "timeout", 30*time.Second, "rendezvous timeout: how long to wait for the full world to assemble")
	fs.StringVar(&o.ckptDir, "ckpt-dir", "", "directory for this rank's .sack checkpoints (enables checkpointing)")
	fs.IntVar(&o.ckptEvery, "ckpt-every", 1, "save a checkpoint every N outer batches")
	fs.BoolVar(&o.resume, "resume", false, "reload the agreed checkpoint and rejoin the mesh (requires -ckpt-dir)")
	fs.IntVar(&o.maxRestarts, "max-restarts", 0, "rejoin and resume up to N times after losing a peer (requires -ckpt-dir)")
	fs.StringVar(&o.health, "health", "", "serve /healthz, /readyz, /checkpoint, /metrics on this address")
	fs.IntVar(&o.faultKillSend, "fault-kill-send", 0, "fault drill: kill this rank's transport before its Nth solver send, once (exercises checkpoint recovery)")
}

// solve joins the world, runs this rank's share of the solve (rejoining
// and resuming from checkpoints when supervision is enabled), and on
// rank 0 reports the result through the reporter sasolve uses, so a
// cluster run byte-diffs against the simulated backend.
func (o *options) solve(stdout, stderr io.Writer) error {
	if o.size <= 0 || o.rank < 0 || o.rank >= o.size {
		return cli.Usagef("-rank %d -size %d: need 0 <= rank < size", o.rank, o.size)
	}
	if o.addr == "" {
		return cli.Usagef("-addr is required")
	}
	if o.ckptDir == "" && (o.resume || o.maxRestarts > 0) {
		return cli.Usagef("-resume and -max-restarts require -ckpt-dir")
	}
	if err := o.Validate(); err != nil {
		return err
	}
	if o.rank != 0 {
		stdout = io.Discard // every rank computes the replicated result; rank 0 reports it
	}
	a, b, err := o.Load(stdout)
	if err != nil {
		return err
	}

	hs, err := newHealthServer(o.health, o.rank)
	if err != nil {
		return err
	}
	defer hs.shutdown()

	// The supervision loop: join, solve, and on a recoverable peer loss
	// rejoin at a higher epoch and resume from the agreed checkpoint. A
	// process started with -resume does not know the surviving world's
	// epoch, so it dials with it unknown (-1) and adopts what the
	// rendezvous reports.
	epoch := 0
	if o.resume {
		epoch = -1
	}
	// The fault drill is one-shot across the whole supervised run, like
	// a real process killed once and then restarted healthy.
	var inj *faulty.Injector
	if o.faultKillSend > 0 {
		inj = faulty.New(faulty.Plan{Rank: o.rank, KillAtSend: o.faultKillSend})
	}
	resume := o.resume
	for attempt := 0; ; attempt++ {
		err := o.joinAndSolve(stdout, a, b, &epoch, resume, inj, hs)
		if err == nil {
			return nil
		}
		if o.maxRestarts <= 0 || attempt >= o.maxRestarts || !dist.Recoverable(err) {
			return err
		}
		fmt.Fprintf(stderr, "sarank: rank %d lost a peer (%v); rejoining at epoch %d to resume (restart %d/%d)\n",
			o.rank, err, epoch, attempt+1, o.maxRestarts)
		hs.noteRestart()
		resume = true
		time.Sleep(dist.RestartBackoff(attempt + 1))
	}
}

// joinAndSolve runs one incarnation of this rank: rendezvous at *epoch,
// solve (resuming from the agreed checkpoint when asked), and tear the
// transport down. On return *epoch is one above the joined world's, so
// the next incarnation outranks any zombie of this one.
func (o *options) joinAndSolve(stdout io.Writer, a *saco.CSR, b []float64,
	epoch *int, resume bool, inj *faulty.Injector, hs *healthServer) (err error) {
	t, err := mpi.DialTCP(context.Background(), o.rank, o.size, o.addr, &mpi.TCPOptions{
		RendezvousTimeout: o.timeout,
		ListenAddr:        o.listen,
		AdvertiseAddr:     o.advertise,
		Epoch:             *epoch,
	})
	if err != nil {
		return err
	}
	// Read the agreed epoch off the raw endpoint before any fault-drill
	// wrapper hides the accessor.
	joined := mpi.TransportEpoch(t)
	*epoch = joined + 1
	hs.setEpoch(joined)
	hs.setReady(true)
	if inj != nil {
		t = inj.Wrap(o.rank, t)
	}
	defer hs.setReady(false)
	// A transport close failure is a real deployment signal (a peer hung
	// up mid-teardown, a socket leaked): surface it unless the solve
	// already failed for a more interesting reason.
	defer func() {
		if cerr := t.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("closing transport: %w", cerr)
		}
	}()
	c := mpi.NewComm(t, o.Machine, 1)
	src := dist.CSRSource{A: a}
	cl := dist.Options{P: o.size, Machine: o.Machine}
	if o.ckptDir != "" {
		cl.Checkpoint = &dist.Checkpoint{
			Dir: o.ckptDir, Every: o.ckptEvery, Resume: resume, OnSave: hs.onSave,
		}
	}
	// A process only knows its own rank's clocks, so unlike sasolve's
	// whole-world cost line this one reports per-rank numbers.
	who := fmt.Sprintf("distributed tcp rank %d/%d", o.rank, o.size)
	local := func() *mpi.Stats { return &mpi.Stats{PerRank: []mpi.RankStats{c.RankStats()}, Local: true} }

	switch o.Task {
	case "lasso":
		opt := o.LassoOptions(a.ToCSC(), b)
		res, err := dist.LassoRank(c, src, b, opt, cl)
		if err != nil {
			return err
		}
		res.Stats = local()
		o.ReportLasso(stdout, who, res, opt.Lambda)
	case "svm":
		res, err := dist.SVMRank(c, src, b, o.SVMOptions(), cl)
		if err != nil {
			return err
		}
		res.Stats = local()
		o.ReportSVM(stdout, who, res)
	}
	return nil
}
