package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"saco/internal/core"
	"saco/internal/metrics"
	"saco/internal/sparse"
)

// The live refit: the one sequential core.Stepper (plain CD/BCD, S = 1)
// runs open-endedly on the calling goroutine, and its Observer publishes
// the live iterate into the registry on a fixed cadence. A published
// version is therefore bitwise the core.Lasso / core.SVM solve at the
// iteration count its log line names. Scoring traffic is never blocked:
// a publish is one immutable model behind the registry's atomic pointer
// swap.

// RefitOptions configures a live refit.
type RefitOptions struct {
	// Every is the publish cadence (default 2s).
	Every time.Duration
	// Seed drives the solver's sampling stream.
	Seed uint64
	// BlockSize is the Lasso block size µ (default 1).
	BlockSize int
	// Lambda overrides the regularization strength; 0 inherits the
	// serving model's recorded lambda.
	Lambda float64
	// Loss selects the SVM loss for KindSVM refits.
	Loss core.SVMLoss
	// Kind overrides the task; KindRaw (the zero value) infers it from
	// the serving model.
	Kind Kind
	// MaxPublishes stops the refit after this many publishes
	// (0 = run until the context is cancelled).
	MaxPublishes int
	// Log, when set, receives one progress line per publish.
	Log io.Writer
	// Steps, when non-nil, counts solver steps taken (wired by saserve
	// to saco_refit_steps_total); nil is inert.
	Steps *metrics.Counter
	// Publishes, when non-nil, counts snapshot publishes (wired to
	// saco_refit_publishes_total); nil is inert.
	Publishes *metrics.Counter
}

// refitCheckEvery is how many iterations pass between two looks at the
// clock and the context: steps are cheap, so the checks are amortized.
const refitCheckEvery = 64

// errRefitDone ends the Stepper's Run once the refit has published its
// last version.
var errRefitDone = errors.New("serve: refit done")

// Refit trains on the labeled rows (a, b) and publishes the live
// iterate every opt.Every until ctx is cancelled (the iterate at that
// point is published on the way out) or MaxPublishes is reached.
//
// Lasso refits warm-start X0 from the serving model's coefficients.
// SVM refits retrain the dual from scratch on the new rows (a published
// primal vector cannot be decomposed back into dual variables),
// publishing the primal iterate.
func Refit(ctx context.Context, reg *Registry, a *sparse.CSR, b []float64, opt RefitOptions) error {
	cur := reg.Current()
	kind := opt.Kind
	if kind == KindRaw && cur != nil {
		kind = cur.Kind
	}
	if kind == KindRaw {
		return errors.New("serve: cannot infer the refit task (no typed serving model); set RefitOptions.Kind")
	}
	if cur != nil && a.N != cur.Features {
		return fmt.Errorf("serve: refit data has %d features, serving model has %d", a.N, cur.Features)
	}
	if a.M == 0 {
		return errors.New("serve: no rows to refit on")
	}
	lambda := opt.Lambda
	if lambda == 0 && cur != nil {
		lambda = cur.Lambda
	}
	if opt.Every <= 0 {
		opt.Every = 2 * time.Second
	}
	pub := &refitPublisher{ctx: ctx, reg: reg, opt: opt, kind: kind, lambda: lambda, rows: len(b),
		next: time.Now().Add(opt.Every)}

	var err error
	switch kind {
	case KindLasso:
		lopt := core.LassoOptions{Lambda: lambda, BlockSize: opt.BlockSize, Seed: opt.Seed, Iters: math.MaxInt}
		if cur != nil {
			lopt.X0 = cur.Dense()
		}
		var st *core.LassoStepper
		if st, err = core.NewLassoStepper(a.ToCSC(), b, lopt, nil, pub); err == nil {
			_, err = st.Run()
		}
	case KindSVM:
		pub.x = 1 // the Stepper's state is (α, x)
		sopt := core.SVMOptions{Lambda: lambda, Loss: opt.Loss, Seed: opt.Seed, Iters: math.MaxInt}
		var st *core.SVMStepper
		if st, err = core.NewSVMStepper(a, b, sopt, nil, pub); err == nil {
			_, err = st.Run()
		}
	default:
		return fmt.Errorf("serve: cannot refit a %s model", kind)
	}
	if errors.Is(err, errRefitDone) {
		return nil
	}
	return err
}

// refitPublisher is the refit's core.Observer: it publishes the live
// primal iterate state[x] from BatchDone and ends the solve with
// errRefitDone after the last publish.
type refitPublisher struct {
	ctx       context.Context
	reg       *Registry
	opt       RefitOptions
	kind      Kind
	lambda    float64
	rows      int
	x         int       // index of the primal iterate in the Stepper's state
	next      time.Time // when the next live publish is due
	published int
}

func (p *refitPublisher) BatchSampled(*core.Batch)        {}
func (p *refitPublisher) StepDone(*core.Batch, int, bool) {}
func (p *refitPublisher) BeginMeasure()                   {}
func (p *refitPublisher) EndMeasure()                     {}
func (p *refitPublisher) Tracked(int, float64)            {}

// BatchDone looks at the context and the clock every refitCheckEvery
// iterations (at S = 1 a batch is one iteration): a cancelled context
// publishes the final iterate and stops, an elapsed cadence publishes
// the live one.
func (p *refitPublisher) BatchDone(h int, _ float64, state [][]float64) error {
	if h%refitCheckEvery != 0 {
		return nil
	}
	p.opt.Steps.Add(refitCheckEvery)
	final := p.ctx.Err() != nil
	if !final && time.Now().Before(p.next) {
		return nil
	}
	if err := p.publish(h, state[p.x], final); err != nil {
		return err
	}
	if final || (p.opt.MaxPublishes > 0 && p.published >= p.opt.MaxPublishes) {
		return errRefitDone
	}
	p.next = time.Now().Add(p.opt.Every)
	return nil
}

func (p *refitPublisher) publish(h int, x []float64, final bool) error {
	m := NewModel(p.kind, x)
	m.TrainRows = p.rows
	m.Lambda = p.lambda
	v, err := p.reg.Publish(m)
	if err != nil {
		return err
	}
	p.published++
	p.opt.Publishes.Inc()
	if p.opt.Log != nil {
		state := "live"
		if final {
			state = "final"
		}
		fmt.Fprintf(p.opt.Log, "refit: published version %d after %d iterations (%s, nnz %d/%d)\n",
			v, h, state, m.NNZ(), m.Features)
	}
	return nil
}
