package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"saco/internal/core"
	"saco/internal/datagen"
	"saco/internal/mat"
	"saco/internal/sparse"
)

// relDiff is the relative difference used by the convergence checks.
func relDiff(a, b float64) float64 {
	d := math.Abs(a - b)
	if m := math.Max(math.Abs(a), math.Abs(b)); m > 0 {
		return d / m
	}
	return d
}

// TestRefitLassoConverges: a refit warm-started from a deliberately bad
// model must publish versions that land at the sequential optimum, with
// the final (quiescent) publish carrying provenance.
func TestRefitLassoConverges(t *testing.T) {
	data := datagen.Regression("refit", 7, 150, 40, 0.25, 6, 0.05)
	a := data.AsCSR()
	lambda := 0.2 * core.LambdaMaxL1(a.ToCSC(), data.B)

	seq, err := core.Lasso(a.ToCSC(), data.B, core.LassoOptions{Lambda: lambda, Iters: 20000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}

	reg, err := OpenRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// A bad initial model: all zeros, but typed and sized.
	init := NewModel(KindLasso, make([]float64, a.N))
	init.Lambda = lambda
	if _, err := reg.Publish(init); err != nil {
		t.Fatal(err)
	}

	var log bytes.Buffer
	err = Refit(context.Background(), reg, a, data.B, RefitOptions{
		Every: 30 * time.Millisecond, Seed: 3,
		MaxPublishes: 3, Log: &log,
	})
	if err != nil {
		t.Fatal(err)
	}
	if reg.Version() != 4 { // initial + 3 refit publishes
		t.Fatalf("registry at version %d, want 4 (log:\n%s)", reg.Version(), log.String())
	}
	m := reg.Current()
	if m.Kind != KindLasso || m.Lambda != lambda || m.TrainRows != a.M {
		t.Fatalf("published provenance wrong: %+v", m)
	}
	obj := 0.5*mat.Nrm2Sq(0, residual(a, m.Dense(), data.B)) + core.L1{Lambda: lambda}.Value(m.Dense())
	if d := relDiff(obj, seq.Objective); d > 1e-4 {
		t.Fatalf("refit objective %.12e vs sequential %.12e (rel %.3e)\n%s", obj, seq.Objective, d, log.String())
	}
}

// residual computes A·x − b.
func residual(a interface{ MulVec(x, y []float64) }, x, b []float64) []float64 {
	r := make([]float64, len(b))
	a.MulVec(x, r)
	for i := range r {
		r[i] -= b[i]
	}
	return r
}

// TestRefitSVMConverges: the dual retrains from scratch on the refit
// rows and the published primal reaches the sequential optimum.
func TestRefitSVMConverges(t *testing.T) {
	data := datagen.Classification("refit-svm", 11, 150, 30, 0.3, 0.05)
	a := data.AsCSR()
	seq, err := core.SVM(a, data.B, core.SVMOptions{Lambda: 1, Loss: core.SVML2, Iters: 120000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}

	reg, err := OpenRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	init := NewModel(KindSVM, make([]float64, a.N))
	init.Lambda = 1
	if _, err := reg.Publish(init); err != nil {
		t.Fatal(err)
	}
	err = Refit(context.Background(), reg, a, data.B, RefitOptions{
		Every: 40 * time.Millisecond, Seed: 5,
		Loss: core.SVML2, MaxPublishes: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := reg.Current()
	if m.Version != 3 || m.Kind != KindSVM {
		t.Fatalf("serving %v version %d", m.Kind, m.Version)
	}
	primal := svmPrimal(a, data.B, m.Dense())
	if d := relDiff(primal, seq.Primal); d > 1e-3 {
		t.Fatalf("refit primal %.12e vs sequential %.12e (rel %.3e)", primal, seq.Primal, d)
	}
}

// svmPrimal evaluates the SVM-L2 primal objective at x.
func svmPrimal(a interface{ MulVec(x, y []float64) }, b, x []float64) float64 {
	margins := make([]float64, len(b))
	a.MulVec(x, margins)
	var loss float64
	for i, m := range margins {
		if h := 1 - b[i]*m; h > 0 {
			loss += h * h
		}
	}
	var norm float64
	for _, v := range x {
		norm += v * v
	}
	return loss + norm/2 // λ = 1: λ/2·‖x‖² with the paper's scaling
}

// TestRefitBitwise: every version a refit publishes is bit for bit the
// model of the core solve run with the same options for the iteration
// count its log line names — for Lasso warm-started from the serving
// model (ended by MaxPublishes), and for SVM trained from scratch (ended
// by cancellation, so the final publish is covered too).
func TestRefitBitwise(t *testing.T) {
	ldata := datagen.Regression("refit-bitwise", 23, 120, 30, 0.3, 5, 0.05)
	la := ldata.AsCSR()
	lambda := 0.1 * core.LambdaMaxL1(la.ToCSC(), ldata.B)
	x0 := make([]float64, la.N)
	for j := range x0 {
		x0[j] = 0.1 * float64(j%4)
	}
	init := NewModel(KindLasso, x0)
	init.Lambda = lambda
	checkRefitBitwise(t, context.Background(), init, la, ldata.B,
		RefitOptions{Every: 10 * time.Millisecond, Seed: 3, BlockSize: 2, MaxPublishes: 3},
		func(h int) ([]float64, error) {
			res, err := core.Lasso(la.ToCSC(), ldata.B, core.LassoOptions{
				Lambda: lambda, BlockSize: 2, Seed: 3, Iters: h, X0: init.Dense(),
			})
			if err != nil {
				return nil, err
			}
			return res.X, nil
		})

	cdata := datagen.Classification("refit-bitwise-svm", 29, 120, 30, 0.3, 0.05)
	ca := cdata.AsCSR()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	checkRefitBitwise(t, ctx, nil, ca, cdata.B,
		RefitOptions{Every: 10 * time.Millisecond, Seed: 5, Kind: KindSVM, Lambda: 1, Loss: core.SVML1},
		func(h int) ([]float64, error) {
			res, err := core.SVM(ca, cdata.B, core.SVMOptions{Lambda: 1, Loss: core.SVML1, Seed: 5, Iters: h})
			if err != nil {
				return nil, err
			}
			return res.X, nil
		})
}

// checkRefitBitwise runs a refit over a registry serving init (none when
// nil) and compares every published version, read back from disk, with
// the model of solve(h) for the iteration count h its log line names.
func checkRefitBitwise(t *testing.T, ctx context.Context, init *Model, a *sparse.CSR, b []float64, opt RefitOptions, solve func(h int) ([]float64, error)) {
	t.Helper()
	reg, err := OpenRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if init != nil {
		if _, err := reg.Publish(init); err != nil {
			t.Fatal(err)
		}
	}
	kind, lambda := opt.Kind, opt.Lambda
	if init != nil && kind == KindRaw {
		kind = init.Kind
	}
	if init != nil && lambda == 0 {
		lambda = init.Lambda
	}
	var log bytes.Buffer
	opt.Log = &log
	if err := Refit(ctx, reg, a, b, opt); err != nil {
		t.Fatal(err)
	}
	lines := regexp.MustCompile(`refit: published version (\d+) after (\d+) iterations`).FindAllStringSubmatch(log.String(), -1)
	if len(lines) < 2 {
		t.Fatalf("want at least two publishes, log:\n%s", log.String())
	}
	for _, ln := range lines {
		v, _ := strconv.ParseUint(ln[1], 10, 64)
		h, _ := strconv.Atoi(ln[2])
		got, err := LoadModelFile(filepath.Join(reg.dir, fmt.Sprintf(modelFilePattern, v)))
		if err != nil {
			t.Fatal(err)
		}
		x, err := solve(h)
		if err != nil {
			t.Fatal(err)
		}
		want := NewModel(kind, x)
		want.TrainRows, want.Lambda, want.Version = len(b), lambda, v
		if g, w := fmt.Sprint(modelFields(got)), fmt.Sprint(modelFields(want)); g != w {
			t.Fatalf("version %d after %d iterations:\n got  %s\n want %s", v, h, g, w)
		}
	}
}

// TestRefitErrors pins the refusal surface: no inferable task, a
// feature-width mismatch with the serving model, and no rows (an empty
// -refit file; the solver's sampler cannot draw from zero rows).
func TestRefitErrors(t *testing.T) {
	data := datagen.Regression("refit-err", 13, 40, 20, 0.3, 4, 0.05)
	a := data.AsCSR()

	empty, err := OpenRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := Refit(context.Background(), empty, a, data.B, RefitOptions{}); err == nil ||
		!strings.Contains(err.Error(), "infer") {
		t.Fatalf("kind inference: %v", err)
	}

	reg, err := OpenRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	wrong := NewModel(KindLasso, make([]float64, a.N+3))
	if _, err := reg.Publish(wrong); err != nil {
		t.Fatal(err)
	}
	if err := Refit(context.Background(), reg, a, data.B, RefitOptions{}); err == nil ||
		!strings.Contains(err.Error(), "features") {
		t.Fatalf("dim mismatch: %v", err)
	}

	none, err := sparse.NewCSR(0, a.N, []int{0}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := Refit(context.Background(), empty, none, nil, RefitOptions{Kind: KindSVM, Lambda: 1}); err == nil ||
		!strings.Contains(err.Error(), "no rows") {
		t.Fatalf("empty data: %v", err)
	}
}

// TestRefitContextCancel: cancelling the context stops the solver and
// flushes one final model.
func TestRefitContextCancel(t *testing.T) {
	data := datagen.Regression("refit-cancel", 17, 80, 25, 0.3, 4, 0.05)
	a := data.AsCSR()
	reg, err := OpenRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	init := NewModel(KindLasso, make([]float64, a.N))
	init.Lambda = 0.1
	if _, err := reg.Publish(init); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Millisecond)
	defer cancel()
	// Publish cadence far beyond the deadline: the only publish is the
	// final flush.
	if err := Refit(ctx, reg, a, data.B, RefitOptions{Every: time.Hour}); err != nil {
		t.Fatal(err)
	}
	if reg.Version() != 2 {
		t.Fatalf("version %d after cancel, want 2 (final flush)", reg.Version())
	}
}

// TestServeWhileRefitting is the tentpole integration check at package
// level: concurrent /predict traffic runs against the registry while a
// live refit publishes new versions into it. Every response must be
// internally consistent (scores exactly match the full model of the
// version it names — verified against the on-disk artifact of that
// version) and the serving version must advance.
func TestServeWhileRefitting(t *testing.T) {
	data := datagen.Regression("serve-refit", 19, 200, 30, 0.3, 5, 0.05)
	a := data.AsCSR()
	lambda := 0.1 * core.LambdaMaxL1(a.ToCSC(), data.B)

	reg, err := OpenRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	init := NewModel(KindLasso, make([]float64, a.N))
	init.Lambda = lambda
	if _, err := reg.Publish(init); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(reg, Options{MaxBatch: 16})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	hs := ts.URL

	refitDone := make(chan error, 1)
	go func() {
		refitDone <- Refit(context.Background(), reg, a, data.B, RefitOptions{
			Every: 15 * time.Millisecond, Seed: 7, MaxPublishes: 4,
		})
	}()

	const clients = 4
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	stop := make(chan struct{})
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"rows":[{"indices":[%d,%d],"values":[0.5,-2]}]}`, c+1, c+7)
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Post(hs+"/predict", "application/json", strings.NewReader(body))
				if err != nil {
					errCh <- err
					return
				}
				data, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					errCh <- fmt.Errorf("client %d: %d %s (%v)", c, resp.StatusCode, data, err)
					return
				}
				var pr predictResponse
				if err := json.Unmarshal(data, &pr); err != nil {
					errCh <- err
					return
				}
				// Verify against the immutable on-disk artifact of the named
				// version: a mixed-version score cannot match it.
				mv, err := LoadModelFile(fmt.Sprintf("%s/model-%08d.sacm", reg.dir, pr.ModelVersion))
				if err != nil {
					errCh <- fmt.Errorf("client %d: version %d not on disk: %v", c, pr.ModelVersion, err)
					return
				}
				xd := mv.Dense()
				want := 0.5*xd[c] + (-2)*xd[c+6]
				if len(pr.Scores) != 1 || pr.Scores[0] != want {
					errCh <- fmt.Errorf("client %d: version %d scored %v, want exactly %v", c, pr.ModelVersion, pr.Scores, want)
					return
				}
			}
		}(c)
	}

	if err := <-refitDone; err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if reg.Version() != 5 { // initial + 4 publishes
		t.Fatalf("version %d after refit, want 5", reg.Version())
	}
}
