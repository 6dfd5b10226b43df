package core_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"saco/internal/core"
	"saco/internal/datagen"
	"saco/internal/dist"
)

// TestNonFiniteLambdaRefused: a NaN or ±Inf λ is refused up front by
// every solver — Lasso (sequential, distributed at P = 2) and
// both SVM losses (sequential, distributed at P = 2) — with an error
// naming the value, never a solve that reports a NaN objective or gap.
func TestNonFiniteLambdaRefused(t *testing.T) {
	reg := datagen.Regression("lambda", 1, 40, 20, 0.2, 3, 0.05)
	cls := datagen.Classification("lambda", 1, 40, 20, 0.2, 0.05)
	cols := reg.AsCSR().ToCSC()
	type solve func(lambda float64) error
	solvers := map[string]solve{
		"lasso": func(l float64) error {
			_, err := core.Lasso(cols, reg.B, core.LassoOptions{Lambda: l, Iters: 10})
			return err
		},
		"dist lasso P=2": func(l float64) error {
			_, err := dist.Lasso(reg.AsCSR(), reg.B, core.LassoOptions{Lambda: l, Iters: 10}, dist.Options{P: 2})
			return err
		},
	}
	for _, loss := range []core.SVMLoss{core.SVML1, core.SVML2} {
		solvers[fmt.Sprintf("svm %v", loss)] = func(l float64) error {
			_, err := core.SVM(cls.CSR, cls.B, core.SVMOptions{Lambda: l, Loss: loss, Iters: 10})
			return err
		}
		solvers[fmt.Sprintf("dist svm %v P=2", loss)] = func(l float64) error {
			_, err := dist.SVM(cls.AsCSR(), cls.B, core.SVMOptions{Lambda: l, Loss: loss, Iters: 10}, dist.Options{P: 2})
			return err
		}
	}
	for name, run := range solvers {
		for _, tc := range []struct {
			lambda float64
			text   string
		}{
			{math.NaN(), "got NaN"},
			{math.Inf(1), "got +Inf"},
			{math.Inf(-1), "got -Inf"},
		} {
			err := run(tc.lambda)
			if err == nil || !strings.Contains(err.Error(), "core: Lambda must be finite") || !strings.Contains(err.Error(), tc.text) {
				t.Errorf("%s, λ = %v: error %v; want core's finite-λ refusal naming %q", name, tc.lambda, err, tc.text)
			}
		}
		if err := run(0.5); err != nil {
			t.Errorf("%s, λ = 0.5: %v", name, err)
		}
	}
}
