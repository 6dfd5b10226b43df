// Command saexp regenerates the tables and figures of "Avoiding
// Synchronization in First-Order Methods for Sparse Convex Optimization"
// (Devarakonda et al., IPDPS 2018) on synthetic dataset replicas and a
// simulated Cray XC30.
//
// Usage:
//
//	saexp [flags] experiment...
//
// Experiments: table1 table2 table4 fig2 table3 fig3 fig4 fig5 table5
// ablations, and all (every distinct one: table4 and table3 print what
// table2 and fig2 print). Flags -scale and -iters trade fidelity for
// speed; -machine picks the modeled platform (cray, ethernet, spark).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"saco/cmd/internal/cli"
	"saco/internal/bench"
	"saco/internal/mpi"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole program behind cli.Main's testable seam.
func run(args []string, stdout, stderr io.Writer) int {
	var (
		scale, iters float64
		seed         uint64
		machine      string
	)
	return cli.Main("saexp", args, stderr, func(fs *flag.FlagSet) {
		fs.Float64Var(&scale, "scale", 1, "dataset scale multiplier")
		fs.Float64Var(&iters, "iters", 1, "iteration-count multiplier")
		fs.Uint64Var(&seed, "seed", 0, "experiment seed (0 = default)")
		fs.StringVar(&machine, "machine", "cray", "modeled platform: cray, ethernet, spark")
	}, func(requested []string) error {
		names := make([]string, len(experiments))
		for i, e := range experiments {
			names[i] = e.name
		}
		if len(requested) == 0 {
			return cli.Usagef("no experiment named; usage: saexp [flags] {%s|all}...", strings.Join(names, "|"))
		}
		var todo []experiment
		for _, name := range requested {
			found := false
			for _, e := range experiments {
				if e.name == name || (name == "all" && e.inAll) {
					todo = append(todo, e)
					found = true
				}
			}
			if !found {
				return cli.Usagef("unknown experiment %q (%s, all)", name, strings.Join(names, ", "))
			}
		}
		mc, err := mpi.MachineByName(machine)
		if err != nil {
			return cli.Usagef("%v", err)
		}
		cfg := bench.Config{Scale: scale, IterScale: iters, Machine: mc, Out: stdout, Seed: seed}
		for _, e := range todo {
			start := time.Now()
			if err := e.run(cfg); err != nil {
				return fmt.Errorf("%s: %w", e.name, err)
			}
			fmt.Fprintf(stdout, "\n[%s completed in %v]\n", e.name, time.Since(start).Round(time.Millisecond))
		}
		return nil
	})
}

// experiment is one name saexp accepts.
type experiment struct {
	name  string
	inAll bool // table3 and table4 print what fig2 and table2 print, so "all" skips them
	run   func(bench.Config) error
}

// experiments is the one experiment table: the usage line, the lookup
// and the expansion of "all" read it.
var experiments = []experiment{
	{"table1", true, printing(bench.Table1)},
	{"table2", true, printing(bench.Tables2and4)},
	{"table4", false, printing(bench.Tables2and4)},
	{"fig2", true, printing(bench.Fig2)},
	{"table3", false, printing(bench.Fig2)},
	{"fig3", true, printing(bench.Fig3)},
	{"fig4", true, printing(bench.Fig4)},
	{"fig5", true, printing(bench.Fig5)},
	{"table5", true, printing(bench.Table5)},
	{"ablations", true, printing(bench.Ablations)},
}

// printing runs a generator for what it renders to Config.Out; saexp has
// no use for the structured result.
func printing[R any](gen func(bench.Config) (R, error)) func(bench.Config) error {
	return func(c bench.Config) error { _, err := gen(c); return err }
}
