package cli

import (
	"flag"
	"fmt"
	"io"
	"slices"
	"strings"

	"saco"
	"saco/internal/mpi"
)

// Spec is the problem a solving binary is asked to fit: the thirteen
// flags cmd/sasolve and cmd/sarank share, what they validate to, and the
// solver options and report lines they produce. Both binaries embed it,
// so a cluster run and its simulated reference cannot disagree on a
// default, on λ, or on a byte of the lines CI diffs.
type Spec struct {
	Data, Task              string
	Iters, S, Track, Mu     int
	Seed                    uint64
	LambdaFrac, Lambda, Tol float64
	Accel                   bool
	// Loss and Machine are what -loss and -machine name; Validate fills
	// them.
	Loss    saco.SVMLoss
	Machine saco.Machine

	loss, machine string
	tasks         []string
	fs            *flag.FlagSet
}

// taskOf names the one task each task-specific flag belongs to: Validate
// refuses such a flag set on the command line with the other task, which
// would ignore it.
var taskOf = map[string]string{
	"lambda-frac": "lasso", "mu": "lasso", "accel": "lasso",
	"lambda": "svm", "loss": "svm", "tol": "svm",
}

// Bind registers the problem flags on fs; tasks are the -task values
// the binary accepts, the first being the default.
func (p *Spec) Bind(fs *flag.FlagSet, tasks ...string) {
	p.tasks, p.fs = tasks, fs
	last := len(tasks) - 1
	fs.StringVar(&p.Data, "data", "", "LIBSVM input file (required)")
	fs.StringVar(&p.Task, "task", tasks[0], strings.Join(tasks[:last], ", ")+" or "+tasks[last])
	fs.IntVar(&p.Iters, "iters", 1000, "iterations H")
	fs.IntVar(&p.S, "s", 1, "recurrence unrolling parameter (1 = classical)")
	fs.Uint64Var(&p.Seed, "seed", 42, "sampling seed")
	fs.IntVar(&p.Track, "track", 0, "print convergence every N iterations")
	fs.Float64Var(&p.LambdaFrac, "lambda-frac", 0.1, "lasso: lambda as a fraction of ||A'b||_inf")
	fs.IntVar(&p.Mu, "mu", 1, "lasso: block size")
	fs.BoolVar(&p.Accel, "accel", false, "lasso: Nesterov acceleration")
	fs.Float64Var(&p.Lambda, "lambda", 1, "svm: penalty parameter")
	fs.StringVar(&p.loss, "loss", "l1", "svm: l1 (hinge) or l2 (squared hinge)")
	fs.Float64Var(&p.Tol, "tol", 0, "svm: stop at this duality gap")
	fs.StringVar(&p.machine, "machine", "cray", "simulated platform: cray, ethernet, spark")
}

// Validate checks the parsed problem flags, returning a usage error for
// a value outside what the binary accepts.
func (p *Spec) Validate() (err error) {
	if !slices.Contains(p.tasks, p.Task) {
		return Usagef("unknown task %q (%s)", p.Task, strings.Join(p.tasks, ", "))
	}
	p.fs.Visit(func(f *flag.Flag) {
		if task, ok := taskOf[f.Name]; ok && task != p.Task && err == nil {
			err = Usagef("-%s belongs to -task %s; -task %s does not read it", f.Name, task, p.Task)
		}
	})
	if err != nil {
		return err
	}
	if p.Loss, err = saco.ParseSVMLoss(p.loss); err != nil {
		return Usagef("%v", err)
	}
	if p.Data == "" {
		return Usagef("-data is required")
	}
	if p.Machine, err = saco.MachineByName(p.machine); err != nil {
		return Usagef("%v", err)
	}
	return nil
}

// Load reads the LIBSVM file into memory and reports its shape on w.
func (p *Spec) Load(w io.Writer) (*saco.CSR, []float64, error) {
	a, b, err := saco.LoadLIBSVM(p.Data, 0)
	if err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(w, "loaded %s: %d points, %d features, %.4g%% nonzero\n",
		p.Data, a.M, a.N, 100*a.Density())
	return a, b, nil
}

// LassoOptions builds the Lasso solver options, resolving λ from
// -lambda-frac against the data: λ = frac·‖Aᵀb‖∞.
func (p *Spec) LassoOptions(cols saco.ColMatrix, b []float64) saco.LassoOptions {
	return saco.LassoOptions{
		Lambda: p.LambdaFrac * saco.LambdaMax(cols, b), BlockSize: p.Mu, Iters: p.Iters, S: p.S,
		Accelerated: p.Accel, Seed: p.Seed, TrackEvery: p.Track,
	}
}

// SVMOptions builds the dual SVM solver options.
func (p *Spec) SVMOptions() saco.SVMOptions {
	return saco.SVMOptions{
		Lambda: p.Lambda, Loss: p.Loss, Iters: p.Iters, S: p.S, Seed: p.Seed,
		TrackEvery: p.Track, Tol: p.Tol,
	}
}

// Point prints one tracked convergence measurement (-track).
func Point(w io.Writer, what string, iter int, value float64) {
	fmt.Fprintf(w, "iter %8d  %s %.6e\n", iter, what, value)
}

// ReportLasso prints what rank 0 reports after a distributed Lasso
// solve: its tracked objectives, the cost line, the final objective.
func (p *Spec) ReportLasso(w io.Writer, who string, res *saco.DistLassoResult, lambda float64) {
	p.report(w, who, "objective", res.Trace, res.Stats)
	fmt.Fprintf(w, "final objective %.6e  (lambda=%.4g)\n", res.Objective, lambda)
}

// ReportSVM is ReportLasso's twin for the dual SVM solve.
func (p *Spec) ReportSVM(w io.Writer, who string, res *saco.DistSVMResult) {
	p.report(w, who, "gap", res.Trace, res.Stats)
	fmt.Fprintf(w, "final duality gap %.6e after %d iterations\n", res.Gap, res.Iters)
}

// report prints the tracked points, then the modeled-time line: who ran
// the solve, the cost model charged, and the modeled seconds and traffic
// of the ranks st covers — the whole world's, or with st.Local one
// process's own (its clock is still the world's critical path through
// its collectives: the clocks piggyback on every message).
func (p *Spec) report(w io.Writer, who, what string, trace []saco.TimedPoint, st *mpi.Stats) {
	for _, pt := range trace {
		Point(w, what, pt.Iter, pt.Value)
	}
	unit := "words"
	if st.Local {
		unit = "words sent"
	}
	fmt.Fprintf(w, "%s (%s): modeled time %.4es, %d messages, %d %s\n",
		who, p.Machine.Name, st.MaxClock(), st.TotalMsgs(), st.TotalWords(), unit)
}
