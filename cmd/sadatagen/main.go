// Command sadatagen writes synthetic replicas of the paper's LIBSVM
// datasets (Tables II and IV) to disk in LIBSVM format, so the other
// tools can exercise file-based workflows.
//
// Example:
//
//	sadatagen -name news20 -scale 0.5 -out news20.svm
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"saco"
	"saco/cmd/internal/cli"
	"saco/internal/datagen"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole program behind cli.Main's testable seam.
func run(args []string, stdout, stderr io.Writer) int {
	var (
		name, out string
		scale     float64
		seed      uint64
	)
	return cli.Main("sadatagen", args, stderr, func(fs *flag.FlagSet) {
		fs.StringVar(&name, "name", "", "replica name (required); one of: "+strings.Join(datagen.ReplicaNames(), ", "))
		fs.Float64Var(&scale, "scale", 1, "dimension scale multiplier")
		fs.Uint64Var(&seed, "seed", 42, "generation seed")
		fs.StringVar(&out, "out", "", "output path (required)")
	}, func([]string) error {
		if name == "" || out == "" {
			return cli.Usagef("-name and -out are required")
		}
		d, err := saco.Replica(name, scale, seed)
		if err != nil {
			return err
		}
		if err := saco.SaveLIBSVM(out, d.AsCSR(), d.B); err != nil {
			return err
		}
		m, n := d.Dims()
		fmt.Fprintf(stdout, "wrote %s: %d points, %d features, %d nonzeros (%.4g%%)\n",
			out, m, n, d.NNZ(), 100*d.Density())
		return nil
	})
}
