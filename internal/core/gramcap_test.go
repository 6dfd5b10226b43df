package core_test

import (
	"errors"
	"strings"
	"testing"

	"saco/internal/core"
	"saco/internal/datagen"
	"saco/internal/dist"
)

// TestGramCapRefused: a batch Gram of more than 2²⁸ entries (k = s·µ
// above 16384) is refused by every solver before anything is sized,
// with a GramTooLargeError naming s, µ and k. k = 16384 exactly is
// accepted, checked by Validate alone (a solve would allocate 2 GiB).
// s is clamped to Iters first, and under group sampling µ is the
// largest group.
func TestGramCapRefused(t *testing.T) {
	reg := datagen.Regression("gramcap", 1, 40, 20, 0.2, 3, 0.05)
	cls := datagen.Classification("gramcap", 1, 40, 20, 0.2, 0.05)
	cols := reg.AsCSR().ToCSC()
	groups := [][]int{{0, 1}, {2, 3, 4, 5}, {6}}
	lasso := func(opt core.LassoOptions) error {
		m, n := cols.Dims()
		return opt.Validate(m, n, len(reg.B))
	}
	cases := []struct {
		name     string
		err      func() error
		s, mu, k int // k = 0: accepted
	}{
		{"lasso s·µ = 16384", func() error { return lasso(core.LassoOptions{Iters: 1 << 20, S: 2048, BlockSize: 8}) }, 0, 0, 0},
		{"lasso s = 16384, µ = 1", func() error { return lasso(core.LassoOptions{Iters: 1 << 20, S: 16384}) }, 0, 0, 0},
		{"lasso s·µ = 16386", func() error { return lasso(core.LassoOptions{Iters: 1 << 20, S: 5462, BlockSize: 3}) }, 5462, 3, 16386},
		{"lasso s clamped to Iters", func() error { return lasso(core.LassoOptions{Iters: 10, S: 100000, BlockSize: 3}) }, 0, 0, 0},
		{"lasso k = 300000", func() error { return lasso(core.LassoOptions{Iters: 100000, S: 100000, BlockSize: 3}) }, 100000, 3, 300000},
		{"lasso largest group", func() error {
			return lasso(core.LassoOptions{Iters: 1 << 20, S: 4097, BlockSize: 1, Groups: groups})
		}, 4097, 4, 16388},
		{"lasso groups at the cap", func() error {
			return lasso(core.LassoOptions{Iters: 1 << 20, S: 4096, BlockSize: 20, Groups: groups})
		}, 0, 0, 0},
		{"lasso solve", func() error {
			_, err := core.Lasso(cols, reg.B, core.LassoOptions{Iters: 100000, S: 100000, BlockSize: 3})
			return err
		}, 100000, 3, 300000},
		{"dist lasso P=2", func() error {
			_, err := dist.Lasso(reg.AsCSR(), reg.B, core.LassoOptions{Iters: 100000, S: 100000, BlockSize: 3}, dist.Options{P: 2})
			return err
		}, 100000, 3, 300000},
		{"svm s = 16385", func() error {
			_, err := core.SVM(cls.CSR, cls.B, core.SVMOptions{Lambda: 1, Iters: 16385, S: 16385})
			return err
		}, 16385, 1, 16385},
		{"svm s = 100000", func() error {
			_, err := core.SVM(cls.CSR, cls.B, core.SVMOptions{Lambda: 1, Iters: 100000, S: 100000})
			return err
		}, 100000, 1, 100000},
		{"dist svm P=2", func() error {
			_, err := dist.SVM(cls.AsCSR(), cls.B, core.SVMOptions{Lambda: 1, Loss: core.SVML2, Iters: 100000, S: 100000}, dist.Options{P: 2})
			return err
		}, 100000, 1, 100000},
	}
	for _, tc := range cases {
		err := tc.err()
		if tc.k == 0 {
			if err != nil {
				t.Errorf("%s: %v, want accepted", tc.name, err)
			}
			continue
		}
		var big *core.GramTooLargeError
		if !errors.As(err, &big) {
			t.Errorf("%s: %v, want a GramTooLargeError", tc.name, err)
			continue
		}
		if big.S != tc.s || big.BlockSize != tc.mu || big.K != tc.k || big.Cap != 1<<28 || big.Bytes != 8*float64(tc.k)*float64(tc.k) {
			t.Errorf("%s: %+v, want s=%d µ=%d k=%d", tc.name, *big, tc.s, tc.mu, tc.k)
		}
		if msg := err.Error(); !strings.Contains(msg, "batch Gram") || !strings.Contains(msg, "past the cap") {
			t.Errorf("%s: message %q names no cap", tc.name, msg)
		}
	}
}
