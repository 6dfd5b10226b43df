// Command saserve serves predictions over HTTP from a directory of
// versioned binary models (the .sacm artifacts sasolve writes), and can
// simultaneously refit the live model on new labeled data without ever
// blocking a request.
//
// Train, serve, score:
//
//	sasolve -task lasso -data train.svm -iters 5000 -out models/model-00000001.sacm
//	saserve -models models -addr :8700
//	curl -d '1:0.5 3:1.2' http://localhost:8700/predict
//
// Publishing a higher-numbered model file into the directory hot-swaps
// it under live traffic (the watcher polls every -watch); running with
// -refit keeps HOGWILD! solver workers training on the given rows and
// publishes a new version every -refit-every, while -learn accepts
// labeled rows over POST /learn into a bounded buffer drained by the
// same live refit.
//
// Cluster mode (-cluster) shards a fleet of named models — one
// subdirectory of -models per model — across a static peer list
// (-peers) with a consistent-hash ring: each replica opens only the
// registries it owns and transparently forwards /predict and /learn
// for the rest to the owning peer. Every replica runs the same
// invocation with its own -self address.
//
// Endpoints: POST /predict (JSON {"rows":[{"indices":[...1-based...],
// "values":[...]}]} or LIBSVM lines; cluster mode adds ?model=name),
// POST /learn (labeled rows, with -learn), GET /stats (the serving
// counters and model provenance as JSON), and in cluster mode
// GET /cluster and POST /cluster/members — mounted next to the shared
// internal/ops routes GET /healthz and GET /readyz (both 503 until every
// owned model is servable) and GET /metrics (Prometheus text; /stats
// reads the same counters). The listener carries internal/ops' fixed
// read, header and idle limits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"saco"
	"saco/internal/ops"
)

func main() {
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// usageError marks a bad invocation (printed with the flag defaults,
// exit 2).
type usageError struct{ msg string }

func (e usageError) Error() string { return e.msg }

// run is the whole program behind a testable seam: parse on a private
// FlagSet, serve until ctx is cancelled, return the exit code.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("saserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		modelDir    = fs.String("models", "", "model registry directory (required); cluster mode shards its subdirectories")
		addr        = fs.String("addr", ":8700", "HTTP listen address")
		watch       = fs.Duration("watch", 2*time.Second, "poll the model directory this often for new versions")
		maxBatch    = fs.Int("max-batch", 256, "max rows coalesced into one scoring kernel call")
		batchWindow = fs.Duration("batch-window", 500*time.Microsecond, "micro-batch linger window after the first request of a batch")
		workers     = fs.Int("workers", 0, "scoring kernel width on the persistent pool (0 = all cores)")
		queueDepth  = fs.Int("queue-depth", 1024, "dispatcher queue bound; a full queue answers 429 immediately")
		maxQDelay   = fs.Duration("max-queue-delay", 0, "shed requests queued longer than this before scoring (0 = never)")
		mmapLoad    = fs.Bool("mmap", false, "serve model coefficients zero-copy from page-mapped artifacts (falls back to copy)")
		clusterMode = fs.Bool("cluster", false, "shard the models under -models across -peers by consistent hashing")
		self        = fs.String("self", "", "this replica's advertised host:port on the ring (required with -cluster)")
		peers       = fs.String("peers", "", "comma-separated replica addresses forming the cluster (self is added if missing)")
		vnodes      = fs.Int("vnodes", 0, "virtual nodes per ring member (0 = library default)")
		learnOn     = fs.Bool("learn", false, "accept labeled rows over POST /learn and refit the live model on them")
		learnCap    = fs.Int("learn-cap", 65536, "labeled rows buffered per model for /learn before backpressure")
		refitPath   = fs.String("refit", "", "LIBSVM file of labeled rows to refit the live model on (optional)")
		refitEvery  = fs.Duration("refit-every", 2*time.Second, "publish a new model version this often while refitting")
		refitW      = fs.Int("refit-workers", 0, "lock-free refit solver workers (0 = all cores)")
		refitKind   = fs.String("refit-task", "", "refit task when the model is untyped: lasso, svm or pegasos (default: from the model header)")
		refitLambda = fs.Float64("refit-lambda", 0, "refit regularization override (0 = the model header's lambda)")
		refitMu     = fs.Int("refit-mu", 1, "refit lasso block size")
		refitSeed   = fs.Uint64("refit-seed", 42, "refit sampling seed")
		refitPubs   = fs.Int("refit-publishes", 0, "stop refitting after this many publishes (0 = run until shutdown)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	err := serveMain(ctx, stdout, &config{
		modelDir: *modelDir, addr: *addr, watch: *watch,
		maxBatch: *maxBatch, batchWindow: *batchWindow, workers: *workers,
		queueDepth: *queueDepth, maxQueueDelay: *maxQDelay, mmap: *mmapLoad,
		cluster: *clusterMode, self: *self, peers: *peers, vnodes: *vnodes,
		learn: *learnOn, learnCap: *learnCap,
		refitPath: *refitPath, refitEvery: *refitEvery, refitW: *refitW,
		refitKind: *refitKind, refitLambda: *refitLambda, refitMu: *refitMu,
		refitSeed: *refitSeed, refitPubs: *refitPubs,
	})
	if err != nil {
		fmt.Fprintf(stderr, "saserve: %v\n", err)
		var ue usageError
		if errors.As(err, &ue) {
			fs.PrintDefaults()
			return 2
		}
		return 1
	}
	return 0
}

// config carries the parsed flags.
type config struct {
	modelDir, addr  string
	watch           time.Duration
	maxBatch        int
	batchWindow     time.Duration
	workers         int
	queueDepth      int
	maxQueueDelay   time.Duration
	mmap            bool
	cluster         bool
	self, peers     string
	vnodes          int
	learn           bool
	learnCap        int
	refitPath       string
	refitEvery      time.Duration
	refitW, refitMu int
	refitKind       string
	refitLambda     float64
	refitSeed       uint64
	refitPubs       int
}

// splitPeers parses the -peers comma list, dropping empty entries.
func splitPeers(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// serveMain opens the registry (or joins the cluster), mounts the
// server, and runs the watcher and (optionally) the refit loop until
// ctx is cancelled.
func serveMain(ctx context.Context, stdout io.Writer, c *config) error {
	if c.modelDir == "" {
		return usageError{"-models is required"}
	}
	kind := saco.KindRaw
	switch c.refitKind {
	case "":
	case "lasso":
		kind = saco.KindLasso
	case "svm":
		kind = saco.KindSVM
	case "pegasos":
		kind = saco.KindPegasos
	default:
		return usageError{fmt.Sprintf("unknown -refit-task %q (lasso, svm, pegasos)", c.refitKind)}
	}
	if c.cluster {
		if c.self == "" {
			return usageError{"-self is required with -cluster"}
		}
		if c.refitPath != "" {
			return usageError{"-refit is file-based and single-model; with -cluster use -learn"}
		}
	}
	mode := saco.LoadCopy
	if c.mmap {
		mode = saco.LoadMmap
	}

	fmt.Fprintf(stdout, "kernels: %s\n", saco.KernelSet())

	// runCtx scopes every background loop (refit file replay, /learn
	// refit streams); stop() on shutdown ends them all, and run returns
	// only once the /learn streams have, so none publishes a model file
	// into -models behind the caller's back.
	runCtx, stop := context.WithCancel(ctx)
	var learners sync.WaitGroup
	defer func() {
		stop()
		learners.Wait()
	}()

	mr := saco.NewMetricsRegistry()
	opt := saco.ServeOptions{
		MaxBatch: c.maxBatch, BatchWindow: c.batchWindow, Workers: c.workers,
		QueueDepth: c.queueDepth, MaxQueueDelay: c.maxQueueDelay,
		Metrics: mr,
	}
	if c.learn {
		opt.LearnCap = c.learnCap
		refitSteps := mr.Counter("saco_refit_steps_total", "lock-free refit solver steps")
		refitPubsC := mr.Counter("saco_refit_publishes_total", "model versions published by live refits")
		opt.OnLearn = func(name string, reg *saco.ModelRegistry, buf *saco.LearnBuffer) {
			label := name
			if label == "" {
				label = "model"
			}
			fmt.Fprintf(stdout, "learn: refit stream started for %s\n", label)
			learners.Add(1)
			go func() {
				defer learners.Done()
				err := saco.RefitStream(runCtx, reg, buf, saco.RefitOptions{
					Every: c.refitEvery, Workers: c.refitW, Seed: c.refitSeed,
					BlockSize: c.refitMu, Lambda: c.refitLambda, Kind: kind,
					Steps: refitSteps, Publishes: refitPubsC, Log: stdout,
				})
				if err != nil && runCtx.Err() == nil {
					fmt.Fprintf(stdout, "learn refit %s failed: %v\n", label, err)
				}
			}()
		}
	}

	var (
		srv *saco.ServeServer
		reg *saco.ModelRegistry
	)
	if c.cluster {
		cl, err := saco.NewCluster(c.modelDir, c.self, splitPeers(c.peers), saco.ServeClusterOptions{
			VNodes: c.vnodes, Mode: mode, RescanEvery: c.watch, Metrics: mr,
		})
		if err != nil {
			return err
		}
		defer cl.Close()
		ring := cl.Ring()
		fmt.Fprintf(stdout, "cluster: %s owns %d model(s) of %s on a ring of %d replicas (%s load)\n",
			c.self, len(cl.Owned()), c.modelDir, ring.Size(), mode)
		srv = saco.NewClusterServer(cl, opt)
	} else {
		var err error
		reg, err = saco.OpenModelRegistry(c.modelDir, mode)
		if err != nil {
			return err
		}
		if m := reg.Current(); m != nil {
			fmt.Fprintf(stdout, "serving model version %d (%s, %d features, %d nonzero) from %s\n",
				m.Version, m.Kind, m.Features, m.NNZ(), c.modelDir)
		} else {
			fmt.Fprintf(stdout, "no model in %s yet; serving 503 until one appears\n", c.modelDir)
		}
		reg.Watch(c.watch)
		defer reg.StopWatch()
		srv = saco.NewServer(reg, opt)
	}
	defer srv.Close()

	ln, err := net.Listen("tcp", c.addr)
	if err != nil {
		return err
	}
	hs := ops.NewServer(srv.Handler())
	httpDone := make(chan error, 1)
	go func() { httpDone <- hs.Serve(ln) }()
	fmt.Fprintf(stdout, "listening on %s\n", ln.Addr())

	refitDone := make(chan error, 1)
	refitting := c.refitPath != ""
	if refitting {
		features := 0
		if m := reg.Current(); m != nil {
			features = m.Features
		}
		a, b, err := saco.LoadLIBSVM(c.refitPath, features)
		if err != nil {
			hs.Close()
			return fmt.Errorf("loading -refit data: %w", err)
		}
		fmt.Fprintf(stdout, "refitting on %s: %d rows, publishing every %v\n", c.refitPath, a.M, c.refitEvery)
		go func() {
			refitDone <- saco.Refit(runCtx, reg, a, b, saco.RefitOptions{
				Every: c.refitEvery, Workers: c.refitW, Seed: c.refitSeed,
				BlockSize: c.refitMu, Lambda: c.refitLambda, Kind: kind,
				MaxPublishes: c.refitPubs, Log: stdout,
			})
		}()
	}

	shutdown := func() error {
		fmt.Fprintln(stdout, "shutting down")
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := hs.Shutdown(shutCtx); err != nil {
			hs.Close()
		}
		stop()
		if refitting {
			return <-refitDone
		}
		return nil
	}

	for {
		select {
		case err := <-httpDone:
			// The listener died underneath us; stop everything and surface it.
			stop()
			if refitting {
				<-refitDone
			}
			return err
		case err := <-refitDone:
			refitting = false
			if err != nil && runCtx.Err() == nil {
				// A failed refit is fatal: the operator asked for live
				// training and is not getting it.
				shutdown() //nolint:errcheck // already returning the cause
				return fmt.Errorf("refit: %w", err)
			}
			fmt.Fprintln(stdout, "refit finished; serving continues")
		case <-ctx.Done():
			if err := shutdown(); err != nil {
				return fmt.Errorf("refit: %w", err)
			}
			return nil
		}
	}
}
