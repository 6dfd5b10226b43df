package simd_test

import (
	"math"
	"testing"

	"saco/internal/simd"
)

func bitsEq(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestDefaultSet pins the name the repo benchmark reports in its header
// through the Active shim: scalar.
func TestDefaultSet(t *testing.T) {
	if got := simd.Active().Name(); got != "scalar" {
		t.Errorf("Active().Name() = %q, want scalar", got)
	}
}

func TestMergeDot(t *testing.T) {
	cases := []struct {
		ia   []int
		va   []float64
		ib   []int
		vb   []float64
		want float64
	}{
		{nil, nil, nil, nil, 1.75},
		{[]int{0, 2, 5}, []float64{1, 2, 3}, []int{1, 3, 6}, []float64{4, 5, 6}, 1.75},
		{[]int{0, 2, 5}, []float64{1, 2, 3}, []int{0, 2, 5}, []float64{4, 5, 6}, 1.75 + 4 + 10 + 18},
		{[]int{1, 4, 7, 9}, []float64{1, -2, 3, -4}, []int{4, 9}, []float64{0.5, 0.25}, 1.75 - 1 - 1},
	}
	for ci, c := range cases {
		if got := simd.MergeDot(1.75, c.ia, c.va, c.ib, c.vb); !bitsEq(got, c.want) {
			t.Errorf("case %d: MergeDot got %v want %v", ci, got, c.want)
		}
		// The method the repo benchmark times is the same function.
		if got := simd.Active().MergeDot(1.75, c.ia, c.va, c.ib, c.vb); !bitsEq(got, c.want) {
			t.Errorf("case %d: Kernels.MergeDot got %v want %v", ci, got, c.want)
		}
	}
}

func TestLengthGuards(t *testing.T) {
	mustPanic := func(op string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s with short companion slice did not panic", op)
			}
		}()
		f()
	}
	short := []float64{1}
	mustPanic("MergeDot", func() { simd.MergeDot(0, []int{0, 1, 2}, short, nil, nil) })
	mustPanic("MergeDot", func() { simd.MergeDot(0, nil, nil, []int{0, 1, 2}, short) })
}
