// Package cli is what the saco binaries share: the process skeleton of
// all five (Main), and the problem description, solver options and
// report lines of the two that solve (Spec; cmd/sasolve and cmd/sarank
// print lines CI byte-diffs against each other, so they are spelled
// here once).
package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
)

// usageError marks a bad invocation: Main prints the flag defaults after
// it and exits 2, like flag's own parse failures.
type usageError struct{ msg string }

func (e usageError) Error() string { return e.msg }

// Usagef returns an error Main reports as a bad invocation (exit 2).
func Usagef(format string, args ...any) error {
	return usageError{fmt.Sprintf(format, args...)}
}

// Main is a whole program behind a testable seam: it parses args on a
// private FlagSet that bind has registered the binary's flags on, calls
// run with the remaining positional arguments, and returns the process
// exit code instead of calling os.Exit — 0 on success and on -h, 2 after
// a parse failure or a Usagef error (followed by the flag defaults), 1
// after any other error. Errors go to stderr as "name: err".
func Main(name string, args []string, stderr io.Writer, bind func(*flag.FlagSet), run func(rest []string) error) int {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	bind(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0 // -h is a successful invocation, like flag.ExitOnError's os.Exit(0)
		}
		return 2
	}
	err := run(fs.Args())
	if err == nil {
		return 0
	}
	fmt.Fprintf(stderr, "%s: %v\n", name, err)
	var ue usageError
	if errors.As(err, &ue) {
		fs.PrintDefaults()
		return 2
	}
	return 1
}
