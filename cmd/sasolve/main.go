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
	"bytes"
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
	"saco/cmd/internal/cli"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole program behind cli.Main's testable seam.
func run(args []string, stdout, stderr io.Writer) int {
	var o options
	return cli.Main("sasolve", args, stderr, o.bind, func([]string) error { return o.solve(stdout) })
}

// options is the parsed command line: the problem (cli.Spec, shared
// with sarank) and what is sasolve's own — where the solve runs, how
// the data is held, and what is written besides the report.
type options struct {
	cli.Spec
	outPath            string
	simP, rankW        int
	transport, backend string
	workers            int
	streaming, useMmap bool
	blockRows          int
	cacheDir           string
	layout, codec      string
	cpuProf, memProf   string
}

func (o *options) bind(fs *flag.FlagSet) {
	o.Spec.Bind(fs, "lasso", "svm", "pegasos")
	fs.StringVar(&o.outPath, "out", "", "write the model here in the versioned binary format (.sacm) saserve serves, whatever the file's suffix")
	fs.IntVar(&o.simP, "simulate", 0, "run on a distributed cluster with this many ranks (0 = local)")
	fs.StringVar(&o.transport, "transport", "sim", "distributed runs: rank transport, sim (in-process simulated world) or tcp (real loopback TCP mesh; trajectories are bitwise identical)")
	fs.IntVar(&o.rankW, "rank-workers", 0, "simulated runs: per-rank core budget for hybrid rank x thread execution (0/1 = flat MPI)")
	fs.StringVar(&o.backend, "backend", "sequential", "local backend: sequential, multicore or async")
	fs.IntVar(&o.workers, "workers", 0, "width of -backend multicore|async (0 or -1 = all cores); a usage error with the sequential backend")
	fs.BoolVar(&o.streaming, "stream", false, "solve out of core: spill the dataset to row-block shards and stream them (bounded memory)")
	fs.IntVar(&o.blockRows, "block-rows", 8192, "streaming: rows per shard")
	fs.StringVar(&o.cacheDir, "cache-dir", "", "streaming: shard cache directory (reused if it holds a manifest; default: a temp dir removed on exit)")
	fs.StringVar(&o.layout, "layout", "csr", "streaming ingest: shard layout, csr or csc (csc makes Lasso column access conversion-free)")
	fs.StringVar(&o.codec, "codec", "raw", "streaming ingest: shard codec, raw or delta (delta-varint roughly halves url-like shard bytes)")
	fs.BoolVar(&o.useMmap, "mmap", false, "streaming: read shards via mmap instead of copying (zero-copy raw vals; falls back to copy reads where unsupported)")
	fs.StringVar(&o.cpuProf, "cpuprofile", "", "write a CPU profile of the solve to this file")
	fs.StringVar(&o.memProf, "memprofile", "", "write a heap profile after the solve to this file")
}

// dataset is the loaded training data — resident or streamed from the
// shard cache — as the three views the solvers take.
type dataset struct {
	cols   func() saco.ColMatrix // built on demand: the resident CSC is a full transpose
	rows   saco.RowMatrix
	source saco.ClusterSource
	b      []float64
}

// solve validates the options and runs one fit end to end. All exits
// flow back through error returns, so deferred cleanup (profiles, temp
// shard caches) always runs.
func (o *options) solve(stdout io.Writer) (err error) {
	exec, err := resolveBackend(o.backend, o.workers)
	if err != nil {
		return err
	}
	if err := o.Validate(); err != nil {
		return err
	}
	cluster := saco.Cluster{P: o.simP, RankWorkers: o.rankW, Machine: o.Machine}
	switch o.transport {
	case "", "sim":
		cluster.Transport = saco.TransportSim
	case "tcp":
		cluster.Transport = saco.TransportTCP
	default:
		return cli.Usagef("unknown transport %q (sim, tcp)", o.transport)
	}
	if o.streaming && exec.Backend == saco.BackendAsync {
		return cli.Usagef("-stream runs the solver sequentially (streamed shards have no atomic kernels); drop -backend async")
	}
	layout, err := saco.ParseStreamLayout(o.layout)
	if err != nil {
		return cli.Usagef("unknown layout %q (csr, csc)", o.layout)
	}
	codec, err := saco.ParseStreamCodec(o.codec)
	if err != nil {
		return cli.Usagef("unknown codec %q (raw, delta)", o.codec)
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
	var d dataset
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
		ds, err := o.openStream(stdout, dir, layout, codec)
		if err != nil {
			return err
		}
		d = dataset{func() saco.ColMatrix { return ds.Cols() }, ds.Rows(), ds, ds.B}
	} else {
		a, b, err := o.Load(stdout)
		if err != nil {
			return err
		}
		d = dataset{func() saco.ColMatrix { return a.ToCSC() }, a, saco.MatrixSource(a), b}
	}
	fmt.Fprintf(stdout, "kernels: %s\n", saco.KernelSet())

	var x []float64
	var kind saco.ModelKind
	lambda := o.Lambda
	switch o.Task {
	case "lasso":
		cols := d.cols()
		opt := o.LassoOptions(cols, d.b)
		opt.Exec = exec
		kind, lambda = saco.KindLasso, opt.Lambda
		if o.simP > 0 {
			res, err := saco.DistLasso(d.source, d.b, opt, cluster)
			if err != nil {
				return err
			}
			o.ReportLasso(stdout, who(cluster), res, lambda)
			x = res.X
			break
		}
		res, err := saco.Lasso(cols, d.b, opt)
		if err != nil {
			return err
		}
		for _, p := range res.History {
			cli.Point(stdout, "objective", p.Iter, p.Value)
		}
		_, n := cols.Dims()
		fmt.Fprintf(stdout, "final objective %.6e  selected features %d/%d  (lambda=%.4g)\n",
			res.Objective, res.NNZ(), n, lambda)
		x = res.X
	case "svm":
		kind = saco.KindSVM
		opt := o.SVMOptions()
		opt.Exec = exec
		if o.simP > 0 {
			res, err := saco.DistSVM(d.source, d.b, opt, cluster)
			if err != nil {
				return err
			}
			o.ReportSVM(stdout, who(cluster), res)
			x = res.X
			break
		}
		res, err := saco.SVM(d.rows, d.b, opt)
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
		kind = saco.KindPegasos
		res, err := saco.PegasosSVM(d.rows, d.b, saco.SVMOptions{
			Lambda: o.Lambda, Iters: o.Iters, Seed: o.Seed, TrackEvery: o.Track, Exec: exec,
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
		m := saco.NewModel(kind, x)
		m.TrainRows = len(d.b)
		m.Lambda = lambda
		if err := saco.SaveModel(o.outPath, m); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "binary model written to %s (%s, %d/%d nonzero)\n",
			o.outPath, kind, m.NNZ(), m.Features)
	}

	if rss, ok := peakRSS(); ok {
		fmt.Fprintf(stdout, "peak RSS %.1f MiB\n", float64(rss)/(1<<20))
	} else {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		fmt.Fprintf(stdout, "runtime sys %.1f MiB (peak RSS unavailable on this platform)\n", float64(ms.Sys)/(1<<20))
	}

	if o.memProf != "" {
		runtime.GC() // settle allocations so the profile shows retained heap
		var prof bytes.Buffer
		if err := pprof.WriteHeapProfile(&prof); err != nil {
			return err
		}
		if err := os.WriteFile(o.memProf, prof.Bytes(), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "heap profile written to %s\n", o.memProf)
	}
	return nil
}

// openStream opens the shard cache in dir when it holds a manifest built
// from -data, ingests -data into it otherwise, and reports what the
// solve will stream.
func (o *options) openStream(stdout io.Writer, dir string, layout saco.StreamLayout, codec saco.StreamCodec) (*saco.StreamDataset, error) {
	var ds *saco.StreamDataset
	var err error
	if _, statErr := os.Stat(filepath.Join(dir, "manifest.bin")); statErr == nil {
		if ds, err = saco.OpenStream(dir); err != nil {
			return nil, err
		}
		if !ds.SourceMatches(o.Data) {
			return nil, fmt.Errorf("shard cache %s was built from different data than %s (size or mtime changed); delete the cache or pick another -cache-dir", dir, o.Data)
		}
		fmt.Fprintf(stdout, "reusing shard cache %s\n", dir)
	} else if ds, err = saco.BuildStream(o.Data, dir, saco.StreamOptions{
		BlockRows: o.blockRows, Layout: layout, Codec: codec,
	}); err != nil {
		return nil, err
	}
	if o.useMmap {
		ds.SetReadMode(saco.StreamMmap)
	}
	m, n := ds.Dims()
	fmt.Fprintf(stdout, "streaming %s: %d points, %d features, %.4g%% nonzero, %d shards x %d rows\n",
		o.Data, m, n, 100*ds.Density(), ds.NumShards(), ds.BlockRows())
	// Reused caches keep their ingest-time layout/codec, so report
	// the manifest's values rather than the flags'.
	if bytes, err := ds.ShardBytes(); err == nil {
		fmt.Fprintf(stdout, "shards: layout=%s codec=%s read=%s, %.1f MiB on disk\n",
			ds.Layout(), ds.Codec(), ds.ReadMode(), float64(bytes)/(1<<20))
	}
	return ds, nil
}

// resolveBackend maps the -backend/-workers pair onto an Exec. -workers
// is the width of the multicore and async backends only: setting it with
// the sequential backend is refused rather than silently ignored.
func resolveBackend(backend string, workers int) (saco.Exec, error) {
	switch backend {
	case "sequential":
		if workers != 0 {
			return saco.Exec{}, cli.Usagef("-workers %d needs a parallel backend: add -backend multicore (or async)", workers)
		}
		return saco.Exec{}, nil
	case "multicore":
		return saco.Multicore(workers), nil
	case "async":
		return saco.Async(workers), nil
	default:
		return saco.Exec{}, cli.Usagef("unknown backend %q (sequential, multicore, async)", backend)
	}
}

// who names the distributed execution in the cost line: "simulated"
// keeps the historical output for the default in-process world,
// "distributed tcp" marks runs whose ranks exchanged real bytes, and a
// hybrid run appends its rank×thread shape.
func who(c saco.Cluster) string {
	s := "simulated"
	if c.Transport == saco.TransportTCP {
		s = "distributed tcp"
	}
	s += fmt.Sprintf(" P=%d", c.P)
	if c.RankWorkers > 1 {
		s += fmt.Sprintf("x%d cores", c.RankWorkers)
	}
	return s
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
