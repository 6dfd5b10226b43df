package mat_test

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"saco/internal/datagen"
	"saco/internal/mat"
	"saco/internal/rng"
	"saco/internal/sparse"
)

// randTridiag returns a seeded symmetric tridiagonal of order n in the
// form LargestEigSymScratch hands to largestTridiag (largest |entry| in
// [½, 4)), in one of five modes: random; clustered at 1 ± 1e-12;
// repeated (one block copied down a split diagonal, so its eigenvalues
// repeat); split, with some eᵢ ±0 or subnormal; and graded over 2⁻⁴⁰ to
// 1. e2 is e², as tridiagonalize computes it.
func randTridiag(r *rand.Rand, n int) (d, e, e2 []float64) {
	d, e, e2 = make([]float64, n), make([]float64, max(n-1, 0)), make([]float64, max(n-1, 0))
	switch r.Intn(5) {
	case 0:
		for i := range d {
			d[i] = r.NormFloat64()
		}
		for i := range e {
			e[i] = r.NormFloat64()
		}
	case 1:
		for i := range d {
			d[i] = 1 + 1e-12*r.NormFloat64()
		}
		for i := range e {
			e[i] = 1e-12 * r.NormFloat64()
		}
	case 2:
		k := 1 + r.Intn(3)
		for i := range d {
			if i < k {
				d[i] = r.NormFloat64()
			} else {
				d[i] = d[i-k]
			}
		}
		for i := range e {
			switch {
			case i%k == k-1:
				e[i] = 0
			case i < k:
				e[i] = r.NormFloat64()
			default:
				e[i] = e[i-k]
			}
		}
	case 3:
		for i := range d {
			d[i] = math.Abs(r.NormFloat64())
		}
		tiny := []float64{0, math.Copysign(0, -1), 5e-324, -1e-310, 2.2250738585072014e-308, 1e-160}
		for i := range e {
			if r.Intn(2) == 0 {
				e[i] = tiny[r.Intn(len(tiny))]
			} else {
				e[i] = r.NormFloat64()
			}
		}
	default:
		for i := range d {
			d[i] = math.Ldexp(r.Float64(), -r.Intn(41))
		}
		for i := range e {
			e[i] = math.Ldexp(r.NormFloat64(), -r.Intn(41))
		}
	}
	var amax float64
	for _, x := range slices.Concat(d, e) {
		amax = max(amax, math.Abs(x))
	}
	if amax == 0 {
		d[0] = 1
		amax = 1
	}
	_, ex := math.Frexp(amax)
	s := math.Ldexp(1, r.Intn(3)-ex)
	for i := range d {
		d[i] *= s
	}
	for i := range e {
		e[i] *= s
		e2[i] = e[i] * e[i]
	}
	return d, e, e2
}

// benchGrams returns 256 µ×µ column Grams of the benchmark's regression
// design (16384×8192 at density 0.005, seed 1), sampled as the
// benchmark's mat.eig8_ns samples its 8×8 blocks.
var benchGrams = func() func(mu int) []*mat.Dense {
	var once sync.Once
	var cols *sparse.CSC
	return func(mu int) []*mat.Dense {
		once.Do(func() { cols = datagen.Regression("bench", 1, 16384, 8192, 0.005, 8192/20, 0.1).Cols() })
		r := rng.New(1 ^ 0x65696738)
		grams := make([]*mat.Dense, 256)
		for i := range grams {
			grams[i] = mat.NewDense(mu, mu)
			cols.ColGram(r.SampleK(8192, mu), grams[i])
		}
		return grams
	}
}()

// checkBisection holds largestTridiag to bisection that counts every
// midpoint, bit for bit, on g's scaled tridiagonal.
func checkBisection(t *testing.T, name string, g *mat.Dense) {
	t.Helper()
	d, e, e2, ok := mat.ScaledTridiag(g)
	if !ok {
		return
	}
	if got, want := mat.LargestTridiag(d, e, e2), mat.BisectOracle(d, e, e2, nil); !sameEig(got, want) {
		t.Fatalf("%s %dx%d %v: largestTridiag %v (%#x), bisection %v (%#x)",
			name, g.R, g.C, g.Data, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// TestLargestTridiagMatchesBisection: skipping the counts the fence
// implies leaves λmax bit for bit where counting every midpoint puts it,
// on seeded tridiagonals of every mode and order 1…16, on random
// symmetric matrices through the full path, and on the benchmark's
// blocks.
func TestLargestTridiagMatchesBisection(t *testing.T) {
	trials, full := 1_000_000, 20_000
	if testing.Short() {
		trials, full = 20_000, 2_000
	}
	r := rand.New(rand.NewSource(37))
	for trial := 0; trial < trials; trial++ {
		d, e, e2 := randTridiag(r, 1+trial%16)
		if got, want := mat.LargestTridiag(d, e, e2), mat.BisectOracle(d, e, e2, nil); !sameEig(got, want) {
			t.Fatalf("trial %d d=%v e=%v: largestTridiag %v (%#x), bisection %v (%#x)",
				trial, d, e, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	for trial := 0; trial < full; trial++ {
		n := 1 + trial%16
		g := mat.NewDense(n, n)
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				v := r.NormFloat64()
				g.Set(i, j, v)
				g.Set(j, i, v)
			}
		}
		checkBisection(t, "symmetric", g)
		checkBisection(t, "psd", randPSD(r, n))
	}
	for _, mu := range []int{4, 8, 16} {
		for _, g := range benchGrams(mu) {
			checkBisection(t, "bench", g)
		}
	}
}

// TestFenceCertifiesBenchmarkBlocks: on the benchmark's 8×8 blocks the
// fence is certified for all but a few, and bisection has at most one
// midpoint per block left to count inside it (0.47 on amd64) — the
// saving the fence exists for, which the bitwise tests cannot see.
func TestFenceCertifiesBenchmarkBlocks(t *testing.T) {
	var fallbacks, inside int
	grams := benchGrams(8)
	for _, g := range grams {
		d, e, e2, _ := mat.ScaledTridiag(g)
		_, hi, tnorm := mat.Bracket(d, e)
		a, b := mat.Fence(d, e2, hi, tnorm)
		if math.IsInf(a, -1) {
			fallbacks++
			continue
		}
		mat.BisectOracle(d, e, e2, func(mid float64) {
			if a < mid && mid < b {
				inside++
			}
		})
	}
	certified := len(grams) - fallbacks
	t.Logf("%d of %d blocks fall back; %.2f midpoints per certified block are counted", fallbacks, len(grams), float64(inside)/float64(certified))
	if fallbacks > len(grams)/16 || inside > certified {
		t.Fatalf("%d of %d blocks fall back, %d midpoints counted in %d windows", fallbacks, len(grams), inside, certified)
	}
}

// TestSturmCountMonotone: the count is nondecreasing in x wherever
// largestTridiag relies on it — at every point x′ above max dᵢ + 2⁻⁹⁶⁸,
// against every point below x′ — on sorted points that include the 64
// floats either side of each eigenvalue and of each dᵢ.
func TestSturmCountMonotone(t *testing.T) {
	r := rand.New(rand.NewSource(64))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + trial%16
		d, e, e2 := randTridiag(r, n)
		tm := mat.NewDense(n, n)
		for i := range d {
			tm.Set(i, i, d[i])
		}
		for i := range e {
			tm.Set(i, i+1, e[i])
			tm.Set(i+1, i, e[i])
		}
		_, hi, tnorm := mat.Bracket(d, e)
		xs := []float64{0, math.Copysign(0, -1), hi, -tnorm}
		for _, c := range slices.Concat(mat.EigSymJacobi(tm), d) {
			lo, up := c, c
			for k := 0; k < 64; k++ {
				lo, up = math.Nextafter(lo, math.Inf(-1)), math.Nextafter(up, math.Inf(1))
				xs = append(xs, lo, up)
			}
			xs = append(xs, c)
		}
		for k := 0; k < 64; k++ {
			xs = append(xs, tnorm*(2*r.Float64()-1))
		}
		slices.Sort(xs)
		dmax := slices.Max(d)
		below := -1
		for _, x := range xs {
			c := mat.SturmBelow(d, e2, x)
			if x > dmax+0x1p-968 && c < below {
				t.Fatalf("trial %d d=%v e=%v: count(%v) = %d after a point below it counted %d", trial, d, e, x, c, below)
			}
			below = max(below, c)
		}
	}
}

// TestSturmCountNudgeIsNotMonotone pins why TestSturmCountMonotone and
// largestTridiag keep to points above max dᵢ + 2⁻⁹⁶⁸: the zero-pivot
// nudge to −pivmin is not monotone. At x = 0 the first pivot is 0,
// nudged to −2⁻¹⁰²², and the second pivot turns negative; at the next
// float up the first pivot is −2⁻¹⁰⁷⁴, above −pivmin, and the second
// stays positive.
func TestSturmCountNudgeIsNotMonotone(t *testing.T) {
	d, e2 := []float64{0, -0.5}, []float64{0x1p-1060}
	if c0, c1 := mat.SturmBelow(d, e2, 0), mat.SturmBelow(d, e2, 0x1p-1074); c0 != 2 || c1 != 1 {
		t.Fatalf("count(0) = %d, count(2⁻¹⁰⁷⁴) = %d; want 2 and 1", c0, c1)
	}
}

// BenchmarkLargestEigSym times the solvers' per-iteration step size on
// the benchmark's µ×µ column Grams (256 blocks per op), and the
// tridiagonal solve alone on the 8×8 blocks' tridiagonals.
func BenchmarkLargestEigSym(b *testing.B) {
	for _, mu := range []int{4, 8, 16} {
		grams := benchGrams(mu)
		scratch := make([]float64, mu*mu+3*mu)
		b.Run(map[int]string{4: "mu4", 8: "mu8", 16: "mu16"}[mu], func(b *testing.B) {
			for b.Loop() {
				for _, g := range grams {
					mat.LargestEigSymScratch(g, scratch)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(grams)), "ns/block")
		})
	}
	type tri struct{ d, e, e2 []float64 }
	var tris []tri
	for _, g := range benchGrams(8) {
		d, e, e2, _ := mat.ScaledTridiag(g)
		tris = append(tris, tri{d, e, e2})
	}
	b.Run("tridiag8", func(b *testing.B) {
		for b.Loop() {
			for _, t := range tris {
				mat.LargestTridiag(t.d, t.e, t.e2)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(tris)), "ns/block")
	})
}
