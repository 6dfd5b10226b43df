// Command sabenchmarks is the repository's benchmark: seven named
// workloads over the solver, distributed and serving layers, five
// end-to-end metrics with regression bounds, and a traced run that
// splits each op into per-layer metrics. BENCHMARK.json at the repository
// root is its contract; benchmarks/README.md defines every name.
//
//	bash benchmarks/run.sh --workload lasso-sa --seed 1 --seconds 12 --trace 0
//	bash benchmarks/run.sh                      # every workload, both runs, one table
//	bash benchmarks/run.sh --repeat-check 5     # do two sets of launches agree?
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"

	"saco/internal/simd"
)

// jsonMetric and jsonResult are the last line a single-workload run
// prints on standard output.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sabenchmarks", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "all", "workload to run in this process, or \"all\" to launch each in a fresh process")
		seed     = fs.Uint64("seed", 1, "seed of every generated input")
		seconds  = fs.Float64("seconds", 12, "how long the timed phase measures")
		trace    = fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: the traced run, per-layer metrics")
		traceOut = fs.String("trace-out", "", "with -trace 1: write the spans to this file at exit")
		repeat   = fs.Int("repeat-check", 0, "launch every workload N times twice over and compare the two sets against the bounds in BENCHMARK.json")
		short    = fs.Bool("short", false, "the tests' small sizes (smoke runs; numbers mean nothing)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintln(stderr, "sabenchmarks: unexpected arguments; see -h")
		return 2
	}
	launch := launcher{seconds: *seconds, short: *short, stderr: stderr}
	switch {
	case *repeat > 0:
		return repeatCheck(launch, *repeat, stdout, stderr)
	case *name == "all":
		return runAll(launch, *seed, stdout, stderr)
	}

	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "sabenchmarks: unknown workload %q\n", *name)
		return 2
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, traceOut: *traceOut, size: &fullSize, setups: 3}
	if *short {
		cfg.size = &shortSize
	}
	if cfg.trace {
		cfg.setups = 1 // setup_s is an end-to-end metric; the traced run does not report it
	}
	out, err := runWorkload(w, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "sabenchmarks: %s: %v\n", w.name, err)
		return 1
	}
	for _, p := range out.problems {
		fmt.Fprintf(stderr, "sabenchmarks: %s: check failed: %s\n", w.name, p)
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	fmt.Fprintf(stdout, "workload %s seed %d seconds %g trace %d gomaxprocs %d kernels %s samples %d\n",
		w.name, cfg.seed, cfg.seconds, *trace, maxProcs(), simd.Active().Name(), out.samples)
	fmt.Fprintf(stdout, "median op by the clock %.6g ms, machine slowdown %.4g (end-to-end times are divided by it)\n",
		out.rawP50Ms, out.slowdown)
	res := jsonResult{Correct: out.correct(), Attempted: out.attempted, Failed: out.failed, Metrics: map[string]jsonMetric{}}
	for _, d := range defs {
		v := out.metrics[d.name]
		fmt.Fprintf(stdout, "%-30s %14.6g %s\n", d.name, v, d.unit)
		res.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "sabenchmarks: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// launcher runs one workload in a process of its own: a fresh heap, page
// cache footprint and scheduler state for every workload, so no workload
// measures what its predecessor left behind.
type launcher struct {
	seconds float64
	short   bool
	stderr  io.Writer
}

func (l launcher) run(workload string, seed uint64, trace int) (*jsonResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{
		"--workload", workload, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.FormatFloat(l.seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace),
	}
	if l.short {
		args = append(args, "--short")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = l.stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", workload, err)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	var res jsonResult
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("%s: last line of output: %w", workload, err)
	}
	return &res, nil
}

// runAll launches every workload twice — tracing off, then traced — and
// prints every metric by name with its unit.
func runAll(l launcher, seed uint64, stdout, stderr io.Writer) int {
	code := 0
	for _, trace := range []int{0, 1} {
		defs := endToEnd
		if trace == 1 {
			defs = perLayer
		}
		results := make([]*jsonResult, len(workloads))
		for i, w := range workloads {
			res, err := l.run(w.name, seed, trace)
			if err != nil {
				fmt.Fprintf(stderr, "sabenchmarks: %v\n", err)
				return 1
			}
			if !res.Correct {
				code = 1
			}
			results[i] = res
		}
		fmt.Fprintf(stdout, "\ntrace %d, seed %d, %g s per workload\n%-30s %-6s", trace, seed, l.seconds, "metric", "unit")
		for _, w := range workloads {
			fmt.Fprintf(stdout, " %14s", w.name)
		}
		fmt.Fprintln(stdout)
		row := func(label, unit string, cell func(*jsonResult) string) {
			fmt.Fprintf(stdout, "%-30s %-6s", label, unit)
			for _, res := range results {
				fmt.Fprintf(stdout, " %14s", cell(res))
			}
			fmt.Fprintln(stdout)
		}
		for _, d := range defs {
			row(d.name, d.unit, func(r *jsonResult) string { return strconv.FormatFloat(r.Metrics[d.name].Value, 'g', 6, 64) })
		}
		row("ops attempted", "count", func(r *jsonResult) string { return strconv.Itoa(r.Attempted) })
		row("ops failed", "count", func(r *jsonResult) string { return strconv.Itoa(r.Failed) })
		row("correct", "", func(r *jsonResult) string { return strconv.FormatBool(r.Correct) })
	}
	return code
}

// manifest is the part of BENCHMARK.json the repeat check needs.
type manifest struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readManifest(path string) (*manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(m.EndToEnd) == 0 {
		return nil, errors.New(path + ": no end_to_end metrics")
	}
	return &m, nil
}

// repeatCheck answers "would two sets of runs of the same code agree?":
// it launches every workload n times for set A and n times for set B,
// alternating A and B so drift of the machine lands on both, with seed i
// for the i-th launch of either set. For every workload × end-to-end
// metric it compares the medians of the two sets against the metric's
// bound, and the spread of each set (interquartile range over median)
// against the same bound.
func repeatCheck(l launcher, n int, stdout, stderr io.Writer) int {
	mf, err := readManifest("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(stderr, "sabenchmarks: %v (run from the repository root)\n", err)
		return 1
	}
	type key struct{ workload, metric string }
	sets := [2]map[key][]float64{{}, {}}
	failed := 0
	for i := 1; i <= n; i++ {
		for set := range sets {
			for _, w := range workloads {
				res, err := l.run(w.name, uint64(i), 0)
				if err != nil {
					fmt.Fprintf(stderr, "sabenchmarks: %v\n", err)
					return 1
				}
				failed += res.Failed
				if !res.Correct {
					failed++
				}
				for name, mv := range res.Metrics {
					k := key{w.name, name}
					sets[set][k] = append(sets[set][k], mv.Value)
				}
			}
			fmt.Fprintf(stderr, "launch %d of set %c done\n", i, 'A'+set)
		}
	}
	spread := func(xs []float64) float64 {
		return (quantile(xs, 0.75) - quantile(xs, 0.25)) / median(xs)
	}
	misses := 0
	fmt.Fprintf(stdout, "%-14s %-14s %12s %12s %8s %8s %8s %6s\n",
		"workload", "metric", "median A", "median B", "B vs A", "IQR A", "IQR B", "bound")
	for _, w := range workloads {
		for _, d := range mf.EndToEnd {
			a, b := sets[0][key{w.name, d.Name}], sets[1][key{w.name, d.Name}]
			ma, mb := median(a), median(b)
			worse := (mb - ma) / ma
			if d.Better == "higher" {
				worse = -worse
			}
			sa, sb := spread(a), spread(b)
			verdict := ""
			// setup_s is held to the bound between sets, not within one:
			// its spread is what repeating the set-up inside a run averages.
			if worse > d.Bound || -worse > d.Bound || (d.Name != "setup_s" && (sa > d.Bound || sb > d.Bound)) {
				verdict = "  MISS"
				misses++
			}
			fmt.Fprintf(stdout, "%-14s %-14s %12.6g %12.6g %+7.2f%% %7.2f%% %7.2f%% %5.0f%%%s\n",
				w.name, d.Name, ma, mb, 100*worse, 100*sa, 100*sb, 100*d.Bound, verdict)
		}
	}
	fmt.Fprintf(stdout, "%d launches per set, %d misses, %d failed ops\n\nvalues by launch (seed 1..%d), set A then set B\n", n, misses, failed, n)
	for _, w := range workloads {
		for _, d := range mf.EndToEnd {
			for set := range sets {
				fmt.Fprintf(stdout, "%-14s %-14s %c", w.name, d.Name, 'A'+set)
				for _, v := range sets[set][key{w.name, d.Name}] {
					fmt.Fprintf(stdout, " %.6g", v)
				}
				fmt.Fprintln(stdout)
			}
		}
	}
	if misses > 0 || failed > 0 {
		return 1
	}
	return 0
}
