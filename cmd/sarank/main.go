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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"saco"
	"saco/internal/dist"
	"saco/internal/mpi"
	"saco/internal/mpi/faulty"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// usageError marks a bad invocation: run prints the flag defaults and
// exits 2, like flag's own parse failures.
type usageError struct{ msg string }

func (e usageError) Error() string { return e.msg }

// run is the whole program behind a testable seam: it parses args on
// its own FlagSet, writes to the given streams, and returns the process
// exit code instead of calling os.Exit. The in-process cluster tests
// call it once per rank on its own goroutine.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sarank", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		rank       = fs.Int("rank", -1, "this process's rank in [0, size) (required)")
		size       = fs.Int("size", 0, "world size: total number of rank processes (required)")
		addr       = fs.String("addr", "", "rendezvous address; rank 0 listens on it, peers dial it (required)")
		listen     = fs.String("listen", "", "mesh listen address of a non-root rank (default 127.0.0.1:0; set a reachable interface for multi-machine runs)")
		advertise  = fs.String("advertise", "", "mesh address published to peers (default: the listener's own; set behind NAT)")
		timeout    = fs.Duration("timeout", 30*time.Second, "rendezvous timeout: how long to wait for the full world to assemble")
		dataPath   = fs.String("data", "", "LIBSVM input file (required; every rank reads it and slices its own block)")
		task       = fs.String("task", "lasso", "lasso or svm")
		iters      = fs.Int("iters", 1000, "iterations H")
		s          = fs.Int("s", 1, "recurrence unrolling parameter (1 = classical)")
		seed       = fs.Uint64("seed", 42, "sampling seed (must match across ranks: draws are replicated)")
		track      = fs.Int("track", 0, "trace convergence every N iterations (rank 0 prints it)")
		lambdaFrac = fs.Float64("lambda-frac", 0.1, "lasso: lambda as a fraction of ||A'b||_inf")
		mu         = fs.Int("mu", 1, "lasso: block size")
		accel      = fs.Bool("accel", false, "lasso: Nesterov acceleration")
		lambda     = fs.Float64("lambda", 1, "svm: penalty parameter")
		loss       = fs.String("loss", "l1", "svm: l1 (hinge) or l2 (squared hinge)")
		tol        = fs.Float64("tol", 0, "svm: stop at this duality gap")
		machine    = fs.String("machine", "cray", "cost model charged to the virtual clocks: cray, ethernet, spark")
		ckptDir    = fs.String("ckpt-dir", "", "directory for this rank's .sack checkpoints (enables checkpointing)")
		ckptEvery  = fs.Int("ckpt-every", 1, "save a checkpoint every N outer batches")
		resume     = fs.Bool("resume", false, "reload the agreed checkpoint and rejoin the mesh (requires -ckpt-dir)")
		maxRestart = fs.Int("max-restarts", 0, "rejoin and resume up to N times after losing a peer (requires -ckpt-dir)")
		health     = fs.String("health", "", "serve /healthz, /readyz, /checkpoint, /metrics on this address")
		faultKill  = fs.Int("fault-kill-send", 0, "fault drill: kill this rank's transport before its Nth solver send, once (exercises checkpoint recovery)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	err := solve(stdout, stderr, &options{
		rank: *rank, size: *size, addr: *addr, listen: *listen,
		advertise: *advertise, timeout: *timeout, dataPath: *dataPath,
		task: *task, iters: *iters, s: *s, seed: *seed, track: *track,
		lambdaFrac: *lambdaFrac, mu: *mu, accel: *accel, lambda: *lambda,
		loss: *loss, tol: *tol, machine: *machine,
		ckptDir: *ckptDir, ckptEvery: *ckptEvery, resume: *resume,
		maxRestarts: *maxRestart, health: *health, faultKillSend: *faultKill,
	})
	if err != nil {
		fmt.Fprintf(stderr, "sarank: %v\n", err)
		var ue usageError
		if errors.As(err, &ue) {
			fs.PrintDefaults()
			return 2
		}
		return 1
	}
	return 0
}

// options carries the parsed flags into solve.
type options struct {
	rank, size              int
	addr, listen, advertise string
	timeout                 time.Duration
	dataPath, task          string
	iters, s, track, mu     int
	seed                    uint64
	lambdaFrac, lambda, tol float64
	accel                   bool
	loss, machine           string
	svmLoss                 saco.SVMLoss // parsed from loss by solve
	ckptDir, health         string
	ckptEvery, maxRestarts  int
	resume                  bool
	faultKillSend           int
}

// solve joins the world, runs this rank's share of the solve (rejoining
// and resuming from checkpoints when supervision is enabled), and on
// rank 0 reports the result in sasolve's output format, so a cluster
// run byte-diffs against the simulated backend.
func solve(stdout, stderr io.Writer, o *options) error {
	if o.size <= 0 || o.rank < 0 || o.rank >= o.size {
		return usageError{fmt.Sprintf("-rank %d -size %d: need 0 <= rank < size", o.rank, o.size)}
	}
	if o.addr == "" {
		return usageError{"-addr is required"}
	}
	if o.dataPath == "" {
		return usageError{"-data is required"}
	}
	if o.ckptDir == "" && (o.resume || o.maxRestarts > 0) {
		return usageError{"-resume and -max-restarts require -ckpt-dir"}
	}
	m, err := saco.MachineByName(o.machine)
	if err != nil {
		return usageError{err.Error()}
	}
	switch o.task {
	case "lasso", "svm":
	default:
		return usageError{fmt.Sprintf("unknown task %q (lasso, svm)", o.task)}
	}
	if o.svmLoss, err = saco.ParseSVMLoss(o.loss); err != nil {
		return usageError{err.Error()}
	}

	a, b, err := saco.LoadLIBSVM(o.dataPath, 0)
	if err != nil {
		return err
	}
	if o.rank == 0 {
		fmt.Fprintf(stdout, "loaded %s: %d points, %d features, %.4g%% nonzero\n",
			o.dataPath, a.M, a.N, 100*a.Density())
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
		err := o.joinAndSolve(stdout, a, b, m, &epoch, resume, inj, hs)
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
func (o *options) joinAndSolve(stdout io.Writer, a *saco.CSR, b []float64, m saco.Machine,
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
	c := mpi.NewComm(t, m, 1)
	src := dist.CSRSource{A: a}
	cl := dist.Options{P: o.size, Machine: m}
	if o.ckptDir != "" {
		cl.Checkpoint = &dist.Checkpoint{
			Dir: o.ckptDir, Every: o.ckptEvery, Resume: resume, OnSave: hs.onSave,
		}
	}

	switch o.task {
	case "lasso":
		lam := o.lambdaFrac * saco.LambdaMax(a.ToCSC(), b)
		opt := saco.LassoOptions{
			Lambda: lam, BlockSize: o.mu, Iters: o.iters, S: o.s,
			Accelerated: o.accel, Seed: o.seed, TrackEvery: o.track,
		}
		res, err := dist.LassoRank(c, src, b, opt, cl)
		if err != nil {
			return err
		}
		if o.rank == 0 {
			for _, p := range res.Trace {
				fmt.Fprintf(stdout, "iter %8d  objective %.6e\n", p.Iter, p.Value)
			}
			reportRank(stdout, c, o)
			fmt.Fprintf(stdout, "final objective %.6e  (lambda=%.4g)\n", res.Objective, lam)
		}
	case "svm":
		opt := saco.SVMOptions{
			Lambda: o.lambda, Loss: o.svmLoss, Iters: o.iters, S: o.s, Seed: o.seed,
			TrackEvery: o.track, Tol: o.tol,
		}
		res, err := dist.SVMRank(c, src, b, opt, cl)
		if err != nil {
			return err
		}
		if o.rank == 0 {
			for _, p := range res.Trace {
				fmt.Fprintf(stdout, "iter %8d  gap %.6e\n", p.Iter, p.Value)
			}
			reportRank(stdout, c, o)
			fmt.Fprintf(stdout, "final duality gap %.6e after %d iterations\n", res.Gap, res.Iters)
		}
	}
	return nil
}

// reportRank prints rank 0's local cost accounting. A process only
// knows its own rank's clocks (mpi.Stats.Local), so unlike sasolve's
// whole-world line this reports per-rank numbers; the modeled time is
// still the world's — the clocks piggyback on every message, so rank
// 0's clock is the critical path through its collectives.
func reportRank(stdout io.Writer, c *mpi.Comm, o *options) {
	st := c.RankStats()
	fmt.Fprintf(stdout, "distributed tcp rank %d/%d (%s): modeled time %.4es, %d messages, %d words sent\n",
		o.rank, o.size, c.Machine().Name, st.Clock, st.Msgs, st.Words)
}
