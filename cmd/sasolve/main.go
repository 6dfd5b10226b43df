// Command sasolve fits a Lasso or linear-SVM model to a LIBSVM-format
// dataset with the (synchronization-avoiding) coordinate-descent solvers.
//
// Examples:
//
//	sasolve -task lasso -data train.svm -lambda-frac 0.1 -mu 8 -s 64 -accel -iters 5000
//	sasolve -task svm -data train.svm -loss l2 -s 128 -iters 100000 -tol 0.1
//	sasolve -task lasso -data url.svm -stream -block-rows 65536 -s 64 -iters 10000
//	sasolve -task lasso -data train.svm -simulate 4 -transport tcp -s 64 -iters 5000
//
// With -stream the input is ingested once into an on-disk shard cache
// (see internal/stream) and solved out of core: peak memory is about
// two row blocks plus solver state instead of the whole matrix, and the
// sequential trajectory is bitwise identical to the in-memory run.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"saco"
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
// exit code instead of calling os.Exit.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sasolve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dataPath   = fs.String("data", "", "LIBSVM input file (required)")
		task       = fs.String("task", "lasso", "lasso, svm or pegasos")
		iters      = fs.Int("iters", 1000, "iterations H")
		s          = fs.Int("s", 1, "recurrence unrolling parameter (1 = classical)")
		seed       = fs.Uint64("seed", 42, "sampling seed")
		outPath    = fs.String("out", "", "write the model here in the versioned binary format (.sacm) saserve serves, whatever the file's suffix")
		track      = fs.Int("track", 0, "print convergence every N iterations")
		lambdaFrac = fs.Float64("lambda-frac", 0.1, "lasso: lambda as a fraction of ||A'b||_inf")
		mu         = fs.Int("mu", 1, "lasso: block size")
		accel      = fs.Bool("accel", false, "lasso: Nesterov acceleration")
		lambda     = fs.Float64("lambda", 1, "svm: penalty parameter")
		loss       = fs.String("loss", "l1", "svm: l1 (hinge) or l2 (squared hinge)")
		tol        = fs.Float64("tol", 0, "svm: stop at this duality gap")
		simP       = fs.Int("simulate", 0, "run on a distributed cluster with this many ranks (0 = local)")
		transport  = fs.String("transport", "sim", "distributed runs: rank transport, sim (in-process simulated world) or tcp (real loopback TCP mesh; trajectories are bitwise identical)")
		machine    = fs.String("machine", "cray", "simulated platform: cray, ethernet, spark")
		rankW      = fs.Int("rank-workers", 0, "simulated runs: per-rank core budget for hybrid rank x thread execution (0/1 = flat MPI)")
		backend    = fs.String("backend", "sequential", "local backend: sequential, multicore or async")
		workers    = fs.Int("workers", 0, "width of -backend multicore|async (0 or -1 = all cores); a usage error with the sequential backend")
		streaming  = fs.Bool("stream", false, "solve out of core: spill the dataset to row-block shards and stream them (bounded memory)")
		blockRows  = fs.Int("block-rows", 8192, "streaming: rows per shard")
		cacheDir   = fs.String("cache-dir", "", "streaming: shard cache directory (reused if it holds a manifest; default: a temp dir removed on exit)")
		layout     = fs.String("layout", "csr", "streaming ingest: shard layout, csr or csc (csc makes Lasso column access conversion-free)")
		codec      = fs.String("codec", "raw", "streaming ingest: shard codec, raw or delta (delta-varint roughly halves url-like shard bytes)")
		useMmap    = fs.Bool("mmap", false, "streaming: read shards via mmap instead of copying (zero-copy raw vals; falls back to copy reads where unsupported)")
		cpuProf    = fs.String("cpuprofile", "", "write a CPU profile of the solve to this file")
		memProf    = fs.String("memprofile", "", "write a heap profile after the solve to this file")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0 // -h is a successful invocation, like flag.ExitOnError's os.Exit(0)
		}
		return 2
	}
	err := solve(stdout, &options{
		dataPath: *dataPath, task: *task, iters: *iters, s: *s, seed: *seed,
		outPath: *outPath, track: *track, lambdaFrac: *lambdaFrac, mu: *mu,
		accel: *accel, lambda: *lambda, loss: *loss, tol: *tol, simP: *simP,
		transport: *transport, machine: *machine, rankW: *rankW,
		backend: *backend, workers: *workers,
		streaming: *streaming, blockRows: *blockRows, cacheDir: *cacheDir,
		layout: *layout, codec: *codec, useMmap: *useMmap,
		cpuProf: *cpuProf, memProf: *memProf,
	})
	if err != nil {
		fmt.Fprintf(stderr, "sasolve: %v\n", err)
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
	dataPath, task, outPath    string
	iters, s, track, mu        int
	seed                       uint64
	lambdaFrac, lambda, tol    float64
	accel                      bool
	loss, transport, machine   string
	simP, rankW, workers       int
	backend                    string
	streaming                  bool
	blockRows                  int
	layout, codec              string
	useMmap                    bool
	cacheDir, cpuProf, memProf string
}

// solve validates the options and runs one fit end to end. All exits
// flow back through error returns, so deferred cleanup (profiles, temp
// shard caches) always runs — unlike the old os.Exit path, which could
// leave a truncated CPU profile behind.
func solve(stdout io.Writer, o *options) (err error) {
	exec, err := resolveBackend(o.backend, o.workers)
	if err != nil {
		return err
	}
	switch o.task {
	case "lasso", "svm", "pegasos":
	default:
		return usageError{fmt.Sprintf("unknown task %q (lasso, svm, pegasos)", o.task)}
	}
	loss, err := saco.ParseSVMLoss(o.loss)
	if err != nil {
		return usageError{err.Error()}
	}
	if o.dataPath == "" {
		return usageError{"-data is required"}
	}
	cluster := saco.Cluster{P: o.simP, RankWorkers: o.rankW}
	if o.simP > 0 {
		if cluster.Machine, err = saco.MachineByName(o.machine); err != nil {
			return usageError{err.Error()}
		}
		switch o.transport {
		case "", "sim":
			cluster.Transport = saco.TransportSim
		case "tcp":
			cluster.Transport = saco.TransportTCP
		default:
			return usageError{fmt.Sprintf("unknown transport %q (sim, tcp)", o.transport)}
		}
	}
	if o.streaming && exec.Backend == saco.BackendAsync {
		return usageError{"-stream runs the solver sequentially (streamed shards have no atomic kernels); drop -backend async"}
	}
	layout, err := saco.ParseStreamLayout(o.layout)
	if err != nil {
		return usageError{fmt.Sprintf("unknown layout %q (csr, csc)", o.layout)}
	}
	codec, err := saco.ParseStreamCodec(o.codec)
	if err != nil {
		return usageError{fmt.Sprintf("unknown codec %q (raw, delta)", o.codec)}
	}

	if o.cpuProf != "" {
		f, err := os.Create(o.cpuProf)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close() //saco:nolint commerr best-effort close on an already-failing path; the first error is propagating and the success path checks Close
			return err
		}
		// StopCPUProfile flushes the profile through f; a failed close
		// here means a truncated profile, which must not report success.
		defer func() {
			pprof.StopCPUProfile()
			if cerr := f.Close(); cerr != nil && err == nil {
				err = fmt.Errorf("closing cpu profile: %w", cerr)
			}
		}()
	}

	// Load the data: resident CSR, or the out-of-core shard cache.
	var (
		ds *saco.StreamDataset
		a  *saco.CSR
		b  []float64
	)
	trainRows := 0
	if o.streaming {
		dir := o.cacheDir
		if dir == "" {
			tmp, err := os.MkdirTemp("", "sasolve-stream-")
			if err != nil {
				return err
			}
			defer os.RemoveAll(tmp)
			dir = tmp
		}
		if _, statErr := os.Stat(filepath.Join(dir, "manifest.bin")); statErr == nil {
			ds, err = saco.OpenStream(dir)
			if err != nil {
				return err
			}
			if !ds.SourceMatches(o.dataPath) {
				return fmt.Errorf("shard cache %s was built from different data than %s (size or mtime changed); delete the cache or pick another -cache-dir", dir, o.dataPath)
			}
			fmt.Fprintf(stdout, "reusing shard cache %s\n", dir)
		} else {
			ds, err = saco.BuildStream(o.dataPath, dir, saco.StreamOptions{
				BlockRows: o.blockRows, Layout: layout, Codec: codec,
			})
			if err != nil {
				return err
			}
		}
		if o.useMmap {
			ds.SetReadMode(saco.StreamMmap)
		}
		b = ds.B
		m, n := ds.Dims()
		trainRows = m
		fmt.Fprintf(stdout, "streaming %s: %d points, %d features, %.4g%% nonzero, %d shards x %d rows\n",
			o.dataPath, m, n, 100*ds.Density(), ds.NumShards(), ds.BlockRows())
		// Reused caches keep their ingest-time layout/codec, so report
		// the manifest's values rather than the flags'.
		if bytes, err := ds.ShardBytes(); err == nil {
			fmt.Fprintf(stdout, "shards: layout=%s codec=%s read=%s, %.1f MiB on disk\n",
				ds.Layout(), ds.Codec(), ds.ReadMode(), float64(bytes)/(1<<20))
		}
	} else {
		a, b, err = saco.LoadLIBSVM(o.dataPath, 0)
		if err != nil {
			return err
		}
		trainRows = a.M
		fmt.Fprintf(stdout, "loaded %s: %d points, %d features, %.4g%% nonzero\n",
			o.dataPath, a.M, a.N, 100*a.Density())
	}
	fmt.Fprintf(stdout, "kernels: %s\n", saco.KernelSet())

	var x []float64
	modelKind := saco.KindRaw
	modelLambda := 0.0
	switch o.task {
	case "lasso":
		var cols saco.ColMatrix
		if o.streaming {
			cols = ds.Cols()
		} else {
			cols = a.ToCSC()
		}
		lam := o.lambdaFrac * saco.LambdaMax(cols, b)
		modelKind, modelLambda = saco.KindLasso, lam
		opt := saco.LassoOptions{
			Lambda: lam, BlockSize: o.mu, Iters: o.iters, S: o.s,
			Accelerated: o.accel, Seed: o.seed, TrackEvery: o.track, Exec: exec,
		}
		if o.simP > 0 {
			var src saco.ClusterSource
			if o.streaming {
				src = ds
			} else {
				src = saco.MatrixSource(a)
			}
			res, err := saco.DistLasso(src, b, opt, cluster)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "%s P=%d%s (%s): modeled time %.4es, %d messages, %d words\n",
				runLabel(cluster), o.simP, hybridSuffix(o.rankW), cluster.Machine.Name, res.ModeledSeconds(),
				res.Stats.TotalMsgs(), res.Stats.TotalWords())
			fmt.Fprintf(stdout, "final objective %.6e  (lambda=%.4g)\n", res.Objective, lam)
			x = res.X
			break
		}
		res, err := saco.Lasso(cols, b, opt)
		if err != nil {
			return err
		}
		for _, p := range res.History {
			fmt.Fprintf(stdout, "iter %8d  objective %.6e\n", p.Iter, p.Value)
		}
		_, n := cols.Dims()
		fmt.Fprintf(stdout, "final objective %.6e  selected features %d/%d  (lambda=%.4g)\n",
			res.Objective, res.NNZ(), n, lam)
		x = res.X
	case "svm":
		modelKind, modelLambda = saco.KindSVM, o.lambda
		opt := saco.SVMOptions{
			Lambda: o.lambda, Loss: loss, Iters: o.iters, S: o.s, Seed: o.seed,
			TrackEvery: o.track, Tol: o.tol, Exec: exec,
		}
		if o.simP > 0 {
			var src saco.ClusterSource
			if o.streaming {
				src = ds
			} else {
				src = saco.MatrixSource(a)
			}
			res, err := saco.DistSVM(src, b, opt, cluster)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "%s P=%d%s (%s): modeled time %.4es, %d messages, %d words\n",
				runLabel(cluster), o.simP, hybridSuffix(o.rankW), cluster.Machine.Name, res.ModeledSeconds(),
				res.Stats.TotalMsgs(), res.Stats.TotalWords())
			fmt.Fprintf(stdout, "final duality gap %.6e after %d iterations\n", res.Gap, res.Iters)
			x = res.X
			break
		}
		var rows saco.RowMatrix
		if o.streaming {
			rows = ds.Rows()
		} else {
			rows = a
		}
		res, err := saco.SVM(rows, b, opt)
		if err != nil {
			return err
		}
		for _, p := range res.History {
			fmt.Fprintf(stdout, "iter %8d  primal %.6e  dual %.6e  gap %.6e\n", p.Iter, p.Primal, p.Dual, p.Gap)
		}
		fmt.Fprintf(stdout, "final duality gap %.6e after %d iterations, %d support vectors\n",
			res.Gap, res.Iters, res.SupportVectors())
		x = res.X
	case "pegasos":
		modelKind, modelLambda = saco.KindPegasos, o.lambda
		var rows saco.RowMatrix
		if o.streaming {
			rows = ds.Rows()
		} else {
			rows = a
		}
		res, err := saco.PegasosSVM(rows, b, saco.SVMOptions{
			Lambda: o.lambda, Iters: o.iters, Seed: o.seed, TrackEvery: o.track, Exec: exec,
		})
		if err != nil {
			return err
		}
		for _, p := range res.History {
			fmt.Fprintf(stdout, "iter %8d  primal %.6e\n", p.Iter, p.Primal)
		}
		fmt.Fprintf(stdout, "final primal objective %.6e (SGD baseline, no certificate)\n", res.Primal)
		x = res.X
	}

	if o.outPath != "" {
		m := saco.NewModel(modelKind, x)
		m.TrainRows = trainRows
		m.Lambda = modelLambda
		if err := saco.SaveModel(o.outPath, m); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "binary model written to %s (%s, %d/%d nonzero)\n",
			o.outPath, modelKind, m.NNZ(), m.Features)
	}

	if rss, ok := peakRSS(); ok {
		fmt.Fprintf(stdout, "peak RSS %.1f MiB\n", float64(rss)/(1<<20))
	} else {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		fmt.Fprintf(stdout, "runtime sys %.1f MiB (peak RSS unavailable on this platform)\n", float64(ms.Sys)/(1<<20))
	}

	if o.memProf != "" {
		f, err := os.Create(o.memProf)
		if err != nil {
			return err
		}
		runtime.GC() // settle allocations so the profile shows retained heap
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close() //saco:nolint commerr best-effort close on an already-failing path; the first error is propagating and the success path checks Close
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "heap profile written to %s\n", o.memProf)
	}
	return nil
}

// resolveBackend maps the -backend/-workers pair onto an Exec. -workers
// is the width of the multicore and async backends only: setting it with
// the sequential backend is refused rather than silently ignored.
func resolveBackend(backend string, workers int) (saco.Exec, error) {
	switch backend {
	case "sequential":
		if workers != 0 {
			return saco.Exec{}, usageError{fmt.Sprintf("-workers %d needs a parallel backend: add -backend multicore (or async)", workers)}
		}
		return saco.Exec{}, nil
	case "multicore":
		return saco.Multicore(workers), nil
	case "async":
		return saco.Async(workers), nil
	default:
		return saco.Exec{}, usageError{fmt.Sprintf("unknown backend %q (sequential, multicore, async)", backend)}
	}
}

// runLabel names the distributed execution backend in the stats line:
// "simulated" keeps the historical output for the default in-process
// world, "distributed tcp" marks runs whose ranks exchanged real bytes.
func runLabel(cluster saco.Cluster) string {
	if cluster.Transport == saco.TransportTCP {
		return "distributed tcp"
	}
	return "simulated"
}

// hybridSuffix renders the rank×thread shape of a hybrid simulated run.
func hybridSuffix(rankWorkers int) string {
	if rankWorkers > 1 {
		return fmt.Sprintf("x%d cores", rankWorkers)
	}
	return ""
}

// peakRSS returns the process's high-water resident set size in bytes
// (VmHWM), the number the streaming memory model is about: with
// -stream it stays near two shards + solver state however large the
// input file is. Linux-only; callers fall back to runtime stats.
func peakRSS() (uint64, bool) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0, false
		}
		kb, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			return 0, false
		}
		return kb << 10, true
	}
	return 0, false
}
