package main

import (
	"fmt"
	"runtime"
	"time"
)

// sizes is one scale of the benchmark. Every solve workload shares one
// problem family (datagen.Regression / Classification at m×n, density),
// so a layer's numbers are comparable across workloads.
type sizes struct {
	m, n    int
	density float64

	lassoSA, lassoClassic, svmSA, distS1, distSA solveSpec

	minOps int // timed ops a run never goes below

	serveRows, serveFeatures int // training set of the served model
	serveDensity             float64
	serveTrainIters          int
	predict, bulk            serveSpec
	minRequests              int
}

// solveSpec sizes one solve workload: H of an op, and the warm-up ops of
// a set-up — at least 2, and as many as bring the set-up to a second, so
// that setup_s is a second of CPU-bound work and not a few milliseconds
// of noise.
type solveSpec struct {
	iters, warm int
}

// fullSize is what the driver measures: a cache-resident problem (672 k
// nonzeros, about 8 MB per storage form) and ops of 0.1–0.3 s on the
// 2-core box the benchmark was sized on, so that 21 ops and three
// set-ups of at least a second fit a run.
var fullSize = sizes{
	m: 16384, n: 8192, density: 0.005,
	lassoSA:      solveSpec{iters: 512, warm: 4},
	lassoClassic: solveSpec{iters: 5000, warm: 5},
	svmSA:        solveSpec{iters: 16000, warm: 5},
	distS1:       solveSpec{iters: 1024, warm: 9},
	distSA:       solveSpec{iters: 1024, warm: 3},
	// 21 is the smallest count that puts 10 samples beyond the median.
	minOps: 21,

	serveRows: 8192, serveFeatures: 4096, serveDensity: 0.01, serveTrainIters: 512,
	predict:     serveSpec{rows: 8, pool: 256, warm: 1200, stages: 400},
	bulk:        serveSpec{rows: 256, pool: 32, warm: 400, stages: 100},
	minRequests: 2000,
}

// shortSize keeps every code path and check of fullSize at a scale the
// tests can run in a few seconds.
var shortSize = sizes{
	m: 512, n: 256, density: 0.05,
	lassoSA:      solveSpec{iters: 64, warm: 2},
	lassoClassic: solveSpec{iters: 200, warm: 2},
	svmSA:        solveSpec{iters: 640, warm: 2},
	distS1:       solveSpec{iters: 64, warm: 2},
	distSA:       solveSpec{iters: 64, warm: 2},
	minOps:       3,

	serveRows: 256, serveFeatures: 128, serveDensity: 0.1, serveTrainIters: 128,
	predict:     serveSpec{rows: 8, pool: 8, warm: 8, stages: 4},
	bulk:        serveSpec{rows: 256, pool: 4, warm: 4, stages: 2},
	minRequests: 16,
}

// benchCase is a set-up workload of either kind.
type benchCase interface {
	// report runs the timed phase and returns the metrics of the run,
	// and the spans of a traced one.
	report(cfg runConfig) (*outcome, *recorder, error)
	close()
}

// workload is one named set of inputs. Its reason for being in the
// benchmark is recorded in BENCHMARK.json and benchmarks/README.md.
type workload struct {
	name  string
	setup func(seed uint64, sz *sizes) (benchCase, error)
}

// setupOf adapts a typed set-up function to the workload table.
func setupOf[C benchCase](f func(seed uint64, sz *sizes) (C, error)) func(uint64, *sizes) (benchCase, error) {
	return func(seed uint64, sz *sizes) (benchCase, error) {
		c, err := f(seed, sz)
		if err != nil {
			return nil, err
		}
		return c, nil
	}
}

var workloads = []workload{
	{"lasso-sa", setupOf(newLassoSA)},
	{"lasso-classic", setupOf(newLassoClassic)},
	{"svm-sa", setupOf(newSVMSA)},
	{"dist-lasso-s1", setupOf(func(seed uint64, sz *sizes) (*solveCase, error) { return newDistLasso(seed, sz, sz.distS1, 1) })},
	{"dist-lasso-sa", setupOf(func(seed uint64, sz *sizes) (*solveCase, error) { return newDistLasso(seed, sz, sz.distSA, 16) })},
	{"serve-predict", setupOf(func(seed uint64, sz *sizes) (*serveCase, error) { return newServeCase(seed, sz, sz.predict) })},
	{"serve-bulk", setupOf(func(seed uint64, sz *sizes) (*serveCase, error) { return newServeCase(seed, sz, sz.bulk) })},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricDef names a metric and its unit; BENCHMARK.json lists the same
// names and units, which the tests check.
type metricDef struct {
	name, unit string
}

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_cpu_ms", "ms"},
	{"allocs_per_op", "1/op"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists every per-layer metric. A traced run reports all of
// them; one that is not on the workload's path reads 0.
var perLayer = []metricDef{
	{"sparse.colgram_ms", "ms/op"},
	{"sparse.colgram_calls", "count"},
	{"sparse.coltmulvec_ms", "ms/op"},
	{"sparse.colmuladd_ms", "ms/op"},
	{"sparse.mulvec_ms", "ms/op"},
	{"sparse.rowgram_ms", "ms/op"},
	{"sparse.rowgram_calls", "count"},
	{"sparse.rowmulvec_ms", "ms/op"},
	{"sparse.rowtaxpy_ms", "ms/op"},
	{"sparse.gram_entries_per_s", "1/s"},
	{"simd.mergedot_ns_per_step", "ns"},
	{"mat.eig8_ns", "ns"},
	{"core.self_ms", "ms/op"},
	{"core.iters_per_s", "1/s"},
	{"core.sa_vs_classic_relerr", "1"},
	{"mpi.msgs_per_op", "count"},
	{"mpi.words_per_op", "count"},
	{"mpi.send_ms", "ms/op"},
	{"mpi.recv_wait_ms", "ms/op"},
	{"mpi.allreduce_small_us", "us"},
	{"mpi.allreduce_large_us", "us"},
	{"mpi.world_boot_ms", "ms"},
	{"dist.self_ms", "ms/op"},
	{"dist.modeled_comm_s", "s"},
	{"dist.measured_comm_s", "s"},
	{"libsvm.parse_us_per_req", "us"},
	{"serve.score_us_per_req", "us"},
	{"serve.handler_us_per_req", "us"},
	{"serve.handler_allocs_per_req", "count"},
	{"serve.handler_bytes_per_req", "B"},
	{"serve.http_overhead_us", "us"},
	{"serve.batch_rows_mean", "rows"},
	{"serve.shed", "count"},
	{"serve.req_per_s", "1/s"},
	{"serve.req_p90_ms", "ms"},
	{"serve.req_p99_ms", "ms"},
	{"trace.child_share_pct", "%"},
	{"trace.spans_per_op", "count"},
	{"trace_overhead_pct", "%"},
	{"harness.slowdown", "x"},
}

// runConfig is one invocation of a workload.
type runConfig struct {
	seed     uint64
	seconds  float64
	trace    bool
	traceOut string // file the spans are written to at exit; "" keeps them in memory only
	size     *sizes
	setups   int       // how many times the whole set-up is done; setup_s is the median
	speed    *speedRef // what the machine's speed is read from; runWorkload makes it
}

// outcome is what one run of one workload reports.
type outcome struct {
	attempted, failed int
	problems          []string
	samples           int // timed ops behind op_p50_ms
	metrics           map[string]float64

	// For the printed header: the median wall time of the timed ops as the
	// clock read it, and the median slowdown it was divided by.
	rawP50Ms, slowdown float64
}

func (o *outcome) correct() bool { return o.failed == 0 && len(o.problems) == 0 }

// maxProcs is the GOMAXPROCS every run uses: the cores of the box, at
// most 2. A fixed ceiling keeps a run on a larger box comparable with
// the 2-core box the workloads were sized on.
func maxProcs() int { return min(runtime.NumCPU(), 2) }

// runWorkload sets the workload up, measures it and returns its metrics:
// the end-to-end ones with tracing off, the per-layer ones from a traced
// run.
func runWorkload(w workload, cfg runConfig) (*outcome, error) {
	runtime.GOMAXPROCS(maxProcs())

	// The whole set-up is repeated and the median reported: one set-up is
	// a single sample, and a single sample of a second of work moves by
	// several percent between launches.
	var c benchCase
	cfg.speed = newSpeedRef()
	setupS := make([]float64, 0, cfg.setups)
	for i := 0; i < cfg.setups; i++ {
		if c != nil {
			c.close()
			c = nil
			runtime.GC()
		}
		before := cfg.speed.read(1)
		t0 := time.Now()
		var err error
		if c, err = w.setup(cfg.seed, cfg.size); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		took := time.Since(t0).Seconds()
		setupS = append(setupS, took/between(before, cfg.speed.read(1)).wall)
	}
	defer c.close()

	out, rec, err := c.report(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		// A traced run reports every per-layer metric; the ones that are
		// not on this workload's path read 0.
		for _, d := range perLayer {
			if _, ok := out.metrics[d.name]; !ok {
				out.metrics[d.name] = 0
			}
		}
	} else {
		out.metrics["setup_s"] = median(setupS)
		out.metrics["peak_rss_mb"] = peakRSSMB()
	}
	if cfg.traceOut != "" && rec != nil {
		if err := rec.writeFile(cfg.traceOut); err != nil {
			return nil, fmt.Errorf("trace file: %w", err)
		}
	}
	return out, nil
}
