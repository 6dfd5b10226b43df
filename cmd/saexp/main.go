// Command saexp regenerates the tables and figures of "Avoiding
// Synchronization in First-Order Methods for Sparse Convex Optimization"
// (Devarakonda et al., IPDPS 2018) on synthetic dataset replicas and a
// simulated Cray XC30.
//
// Usage:
//
//	saexp [flags] experiment...
//
// Experiments: table1 table2 fig2 table3 fig3 fig4 fig5 table5 ablations
// all. Flags -scale and -iters trade fidelity for speed; -machine picks
// the modeled platform (cray, ethernet, spark).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"saco/internal/bench"
	"saco/internal/mpi"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole program behind a testable seam: it parses args on
// its own FlagSet, writes to the given streams, and returns the process
// exit code instead of calling os.Exit (the same shape as sasolve's).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("saexp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		scale   = fs.Float64("scale", 1, "dataset scale multiplier")
		iters   = fs.Float64("iters", 1, "iteration-count multiplier")
		seed    = fs.Uint64("seed", 0, "experiment seed (0 = default)")
		machine = fs.String("machine", "cray", "modeled platform: cray, ethernet, spark")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	exps := fs.Args()
	if len(exps) == 0 {
		fmt.Fprintln(stderr, "usage: saexp [flags] {table1|table2|fig2|table3|fig3|fig4|fig5|table5|ablations|all}...")
		fs.PrintDefaults()
		return 2
	}

	mc, err := mpi.MachineByName(*machine)
	if err != nil {
		fmt.Fprintf(stderr, "saexp: %v\n", err)
		return 2
	}
	cfg := bench.Config{Scale: *scale, IterScale: *iters, Machine: mc, Out: stdout, Seed: *seed}

	type experiment struct {
		name string
		run  func(bench.Config) error
	}
	wrap2 := func(f func(bench.Config) (*bench.Fig2Result, error)) func(bench.Config) error {
		return func(c bench.Config) error { _, err := f(c); return err }
	}
	exptab := []experiment{
		{"table1", func(c bench.Config) error { _, err := bench.Table1(c); return err }},
		{"table2", func(c bench.Config) error { _, err := bench.Tables2and4(c); return err }},
		{"table4", func(c bench.Config) error { _, err := bench.Tables2and4(c); return err }},
		{"fig2", wrap2(bench.Fig2)},
		{"table3", wrap2(bench.Table3)},
		{"fig3", func(c bench.Config) error { _, err := bench.Fig3(c); return err }},
		{"fig4", func(c bench.Config) error { _, err := bench.Fig4(c); return err }},
		{"fig5", func(c bench.Config) error { _, err := bench.Fig5(c); return err }},
		{"table5", func(c bench.Config) error { _, err := bench.Table5(c); return err }},
		{"ablations", func(c bench.Config) error { _, err := bench.Ablations(c); return err }},
	}
	lookup := map[string]func(bench.Config) error{}
	for _, e := range exptab {
		lookup[e.name] = e.run
	}

	requested := exps
	if len(exps) == 1 && exps[0] == "all" {
		requested = []string{"table1", "table2", "fig2", "fig3", "fig4", "fig5", "table5", "ablations"}
	}
	for _, name := range requested {
		runExp, ok := lookup[name]
		if !ok {
			fmt.Fprintf(stderr, "saexp: unknown experiment %q\n", name)
			return 2
		}
		start := time.Now()
		if err := runExp(cfg); err != nil {
			fmt.Fprintf(stderr, "saexp: %s: %v\n", name, err)
			return 1
		}
		fmt.Fprintf(stdout, "\n[%s completed in %v]\n", name, time.Since(start).Round(time.Millisecond))
	}
	return 0
}
