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
// -refit keeps the sequential solver training on the given rows and
// publishes a new version every -refit-every, while -learn instead
// accepts labeled rows over POST /learn into a bounded buffer drained by
// the same live refit.
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
	"unicode"

	"saco"
	"saco/cmd/internal/cli"
	"saco/internal/ops"
)

func main() {
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole program behind cli.Main's testable seam: serve until
// ctx is cancelled, return the exit code.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	var c config
	return cli.Main("saserve", args, stderr, c.bind, func([]string) error { return c.serve(ctx, stdout) })
}

// config is the parsed command line; the flags that are a library
// option are bound straight into it.
type config struct {
	modelDir, addr       string
	watch                time.Duration
	serving              saco.ServeOptions
	refit                saco.RefitOptions
	cluster, learn       bool
	self, peers          string
	learnCap             int
	refitPath, refitKind string
}

func (c *config) bind(fs *flag.FlagSet) {
	fs.StringVar(&c.modelDir, "models", "", "model registry directory (required); cluster mode shards its subdirectories")
	fs.StringVar(&c.addr, "addr", ":8700", "HTTP listen address")
	fs.DurationVar(&c.watch, "watch", 2*time.Second, "poll the model directory this often for new versions")
	fs.IntVar(&c.serving.MaxBatch, "max-batch", 256, "max rows coalesced into one scoring kernel call")
	fs.IntVar(&c.serving.QueueDepth, "queue-depth", 1024, "dispatcher queue bound; a full queue answers 429 immediately")
	fs.DurationVar(&c.serving.MaxQueueDelay, "max-queue-delay", 0, "shed requests queued longer than this before scoring (0 = never)")
	fs.BoolVar(&c.cluster, "cluster", false, "shard the models under -models across -peers by consistent hashing")
	fs.StringVar(&c.self, "self", "", "this replica's advertised host:port on the ring (required with -cluster)")
	fs.StringVar(&c.peers, "peers", "", "comma-separated replica addresses forming the cluster (self is added if missing)")
	fs.BoolVar(&c.learn, "learn", false, "accept labeled rows over POST /learn and refit the live model on them")
	fs.IntVar(&c.learnCap, "learn-cap", 65536, "labeled rows buffered per model for /learn before backpressure")
	fs.StringVar(&c.refitPath, "refit", "", "LIBSVM file of labeled rows to refit the live model on (optional)")
	fs.DurationVar(&c.refit.Every, "refit-every", 2*time.Second, "publish a new model version this often while refitting")
	fs.StringVar(&c.refitKind, "refit-task", "", "refit task when the model is untyped: lasso or svm (default: from the model header)")
	fs.Float64Var(&c.refit.Lambda, "refit-lambda", 0, "refit regularization override (0 = the model header's lambda)")
	fs.IntVar(&c.refit.BlockSize, "refit-mu", 1, "refit lasso block size")
	fs.Uint64Var(&c.refit.Seed, "refit-seed", 42, "refit sampling seed")
	fs.IntVar(&c.refit.MaxPublishes, "refit-publishes", 0, "stop refitting after this many publishes (0 = run until shutdown)")
}

// serve opens the registry (or joins the cluster), mounts the server,
// and runs the watcher and (optionally) the refit loop until ctx is
// cancelled.
func (c *config) serve(ctx context.Context, stdout io.Writer) error {
	if c.modelDir == "" {
		return cli.Usagef("-models is required")
	}
	// Both live-refit modes (the -learn streams, the -refit file) run on
	// these options; -refit-publishes bounds only the file replay (a
	// stream publishes once per cycle, for as long as rows arrive).
	refit := c.refit
	refit.Log = stdout
	switch c.refitKind {
	case "":
	case "lasso":
		refit.Kind = saco.KindLasso
	case "svm":
		refit.Kind = saco.KindSVM
	default:
		return cli.Usagef("unknown -refit-task %q (lasso, svm)", c.refitKind)
	}
	if c.cluster {
		if c.self == "" {
			return cli.Usagef("-self is required with -cluster")
		}
		if c.refitPath != "" {
			return cli.Usagef("-refit is file-based and single-model; with -cluster use -learn")
		}
	}
	if c.refitPath != "" && c.learn {
		return cli.Usagef("-refit and -learn would run two trainers on one registry; use one of them")
	}

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
	opt := c.serving
	opt.Metrics = mr
	if c.learn {
		opt.LearnCap = c.learnCap
		stream := refit
		stream.Steps = mr.Counter("saco_refit_steps_total", "refit solver steps")
		stream.Publishes = mr.Counter("saco_refit_publishes_total", "model versions published by live refits")
		opt.OnLearn = func(name string, reg *saco.ModelRegistry, buf *saco.LearnBuffer) {
			label := name
			if label == "" {
				label = "model"
			}
			fmt.Fprintf(stdout, "learn: refit stream started for %s\n", label)
			learners.Add(1)
			go func() {
				defer learners.Done()
				err := saco.RefitStream(runCtx, reg, buf, stream)
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
		// -peers is a comma list; blanks and empty entries are dropped.
		peers := strings.FieldsFunc(c.peers, func(r rune) bool { return r == ',' || unicode.IsSpace(r) })
		cl, err := saco.NewCluster(c.modelDir, c.self, peers, saco.ServeClusterOptions{
			RescanEvery: c.watch, Metrics: mr,
		})
		if err != nil {
			return err
		}
		defer cl.Close()
		ring := cl.Ring()
		fmt.Fprintf(stdout, "cluster: %s owns %d model(s) of %s on a ring of %d replicas\n",
			c.self, len(cl.Owned()), c.modelDir, ring.Size())
		srv = saco.NewClusterServer(cl, opt)
	} else {
		var err error
		reg, err = saco.OpenModelRegistry(c.modelDir)
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
		fmt.Fprintf(stdout, "refitting on %s: %d rows, publishing every %v\n", c.refitPath, a.M, refit.Every)
		go func() { refitDone <- saco.Refit(runCtx, reg, a, b, refit) }()
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
