package mat

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	if a == b {
		return true
	}
	d := math.Abs(a - b)
	s := math.Max(math.Abs(a), math.Abs(b))
	return d <= tol*math.Max(1, s)
}

func TestDot(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{4, -5, 6}
	if got := Dot(x, y); got != 12 {
		t.Fatalf("Dot = %v, want 12", got)
	}
	if got := Dot(nil, nil); got != 0 {
		t.Fatalf("Dot(nil,nil) = %v, want 0", got)
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestAxpy(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{10, 20, 30}
	Axpy(2, x, y)
	want := []float64{12, 24, 36}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("Axpy y[%d] = %v, want %v", i, y[i], want[i])
		}
	}
	// alpha == 0 must leave y untouched (fast path).
	Axpy(0, x, y)
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("Axpy(0) modified y[%d]", i)
		}
	}
}

func TestScalFill(t *testing.T) {
	x := []float64{1, -2, 4}
	Scal(-0.5, x)
	want := []float64{-0.5, 1, -2}
	for i := range want {
		if x[i] != want[i] {
			t.Fatalf("Scal x[%d] = %v, want %v", i, x[i], want[i])
		}
	}
	Fill(x, 7)
	for i := range x {
		if x[i] != 7 {
			t.Fatalf("Fill x[%d] = %v", i, x[i])
		}
	}
}

func TestNrm2MatchesNaive(t *testing.T) {
	x := []float64{3, 4}
	if got := Nrm2(x); !almostEq(got, 5, 1e-15) {
		t.Fatalf("Nrm2 = %v, want 5", got)
	}
	if got := Nrm2(nil); got != 0 {
		t.Fatalf("Nrm2(nil) = %v", got)
	}
}

func TestNrm2Overflow(t *testing.T) {
	x := []float64{1e300, 1e300}
	got := Nrm2(x)
	want := 1e300 * math.Sqrt2
	if !almostEq(got, want, 1e-14) {
		t.Fatalf("Nrm2 overflow-guard = %v, want %v", got, want)
	}
	y := []float64{1e-300, 1e-300}
	if got := Nrm2(y); !almostEq(got, 1e-300*math.Sqrt2, 1e-14) {
		t.Fatalf("Nrm2 underflow-guard = %v", got)
	}
}

func TestNrm2PropertyAgainstSquaredSum(t *testing.T) {
	f := func(xs []float64) bool {
		// Keep magnitudes moderate so the naive reference is exact enough.
		for i := range xs {
			if math.IsNaN(xs[i]) || math.IsInf(xs[i], 0) {
				return true
			}
			xs[i] = math.Mod(xs[i], 1e6)
		}
		return almostEq(Nrm2(xs)*Nrm2(xs), Nrm2Sq(0, xs), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAsumAmax(t *testing.T) {
	x := []float64{-3, 1, 2}
	if got := Asum(x); got != 6 {
		t.Fatalf("Asum = %v", got)
	}
	if got := AmaxAbs(x); got != 3 {
		t.Fatalf("AmaxAbs = %v", got)
	}
	if got := AmaxAbs(nil); got != 0 {
		t.Fatalf("AmaxAbs(nil) = %v", got)
	}
}

func TestGatherScatter(t *testing.T) {
	src := []float64{10, 20, 30, 40}
	idx := []int{3, 1}
	dst := make([]float64, 2)
	Gather(dst, src, idx)
	if dst[0] != 40 || dst[1] != 20 {
		t.Fatalf("Gather = %v", dst)
	}
	acc := []float64{0, 0, 0, 0}
	ScatterAdd(acc, dst, idx)
	if acc[3] != 40 || acc[1] != 20 || acc[0] != 0 {
		t.Fatalf("ScatterAdd = %v", acc)
	}
	ScatterAxpy(-1, acc, dst, idx)
	for i, v := range acc {
		if v != 0 {
			t.Fatalf("ScatterAxpy acc[%d] = %v, want 0", i, v)
		}
	}
}

// Property: Dot is bilinear: (ax)·y == a(x·y).
func TestDotBilinearProperty(t *testing.T) {
	f := func(seedVals []float64, alpha float64) bool {
		if len(seedVals) == 0 || math.IsNaN(alpha) || math.IsInf(alpha, 0) {
			return true
		}
		alpha = math.Mod(alpha, 100)
		x := make([]float64, len(seedVals))
		y := make([]float64, len(seedVals))
		for i, v := range seedVals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
			x[i] = math.Mod(v, 1e3)
			y[i] = math.Mod(v*0.7+1, 1e3)
		}
		ax := make([]float64, len(x))
		for i := range x {
			ax[i] = alpha * x[i]
		}
		return almostEq(Dot(ax, y), alpha*Dot(x, y), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
