package core

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSoftThresholdKnown(t *testing.T) {
	cases := []struct{ a, v, want float64 }{
		{1, 3, 2},
		{1, -3, -2},
		{1, 0.5, 0},
		{1, -0.5, 0},
		{0, 2, 2},
		{2, 2, 0},
	}
	for _, c := range cases {
		if got := SoftThreshold(c.a, c.v); got != c.want {
			t.Fatalf("S_%v(%v) = %v, want %v", c.a, c.v, got, c.want)
		}
	}
}

// Properties of the soft-thresholding operator: shrinkage (|S(v)| <= |v|),
// sign preservation, and 1-Lipschitz continuity (nonexpansiveness).
func TestSoftThresholdProperties(t *testing.T) {
	f := func(aRaw, v, w float64) bool {
		if math.IsNaN(aRaw) || math.IsInf(aRaw, 0) || math.IsNaN(v) || math.IsInf(v, 0) || math.IsNaN(w) || math.IsInf(w, 0) {
			return true
		}
		a := math.Abs(math.Mod(aRaw, 1e6))
		v = math.Mod(v, 1e6)
		w = math.Mod(w, 1e6)
		sv, sw := SoftThreshold(a, v), SoftThreshold(a, w)
		if math.Abs(sv) > math.Abs(v) {
			return false
		}
		if sv*v < 0 {
			return false
		}
		return math.Abs(sv-sw) <= math.Abs(v-w)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestL1ProxAndValue(t *testing.T) {
	r := L1{Lambda: 2}
	v := []float64{3, -1, 0.5}
	r.Prox(0.5, v) // threshold 1
	want := []float64{2, 0, 0}
	for i := range want {
		if v[i] != want[i] {
			t.Fatalf("prox[%d] = %v, want %v", i, v[i], want[i])
		}
	}
	if got := r.Value([]float64{1, -2}); got != 6 {
		t.Fatalf("Value = %v, want 6", got)
	}
	if r.Name() != "l1" {
		t.Fatal("name")
	}
}

func TestElasticNetDegeneratesToL1(t *testing.T) {
	en := ElasticNet{Lambda: 1.5, Alpha: 1}
	l1 := L1{Lambda: 1.5}
	v1 := []float64{2, -3, 0.1}
	v2 := append([]float64(nil), v1...)
	en.Prox(0.7, v1)
	l1.Prox(0.7, v2)
	for i := range v1 {
		if v1[i] != v2[i] {
			t.Fatalf("EN(α=1) prox differs from L1 at %d", i)
		}
	}
	if math.Abs(en.Value([]float64{1, -1})-l1.Value([]float64{1, -1})) > 1e-15 {
		t.Fatal("EN(α=1) value differs from L1")
	}
}

func TestElasticNetRidgeShrinks(t *testing.T) {
	en := ElasticNet{Lambda: 1, Alpha: 0} // pure ridge: v/(1+η)
	v := []float64{2}
	en.Prox(1, v)
	if v[0] != 1 {
		t.Fatalf("ridge prox = %v, want 1", v[0])
	}
	if en.Name() != "elastic-net" {
		t.Fatal("name")
	}
}

// Property: any prox is a minimizer, so eta·g(p) + ½‖p−v‖² <= eta·g(u) +
// ½‖u−v‖² for random probes u.
func TestProxOptimalityProperty(t *testing.T) {
	regs := []Regularizer{
		L1{Lambda: 0.8},
		ElasticNet{Lambda: 0.8, Alpha: 0.5},
	}
	f := func(seed int64, etaRaw float64) bool {
		if math.IsNaN(etaRaw) || math.IsInf(etaRaw, 0) {
			return true
		}
		eta := 0.01 + math.Abs(math.Mod(etaRaw, 10))
		s := seed
		next := func() float64 {
			s = s*6364136223846793005 + 1442695040888963407
			return float64(int16(s>>32)) / 1e3
		}
		for _, g := range regs {
			v := []float64{next(), next(), next()}
			p := append([]float64(nil), v...)
			g.Prox(eta, p)
			obj := func(u []float64) float64 {
				var d float64
				for i := range u {
					d += (u[i] - v[i]) * (u[i] - v[i])
				}
				return eta*g.Value(u) + d/2
			}
			pObj := obj(p)
			for probe := 0; probe < 8; probe++ {
				u := []float64{next(), next(), next()}
				if obj(u) < pObj-1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestGroupLassoProx(t *testing.T) {
	g := GroupLasso{Lambda: 1, Groups: [][]int{{0, 1}, {2}}}
	// ‖v‖ = 5, scale = 1 − η·λ/5.
	v := []float64{3, 4}
	g.Prox(2.5, v)
	if math.Abs(v[0]-1.5) > 1e-14 || math.Abs(v[1]-2) > 1e-14 {
		t.Fatalf("group prox = %v", v)
	}
	// Shrink to zero when the threshold exceeds the norm.
	v = []float64{0.3, 0.4}
	g.Prox(1, v)
	if v[0] != 0 || v[1] != 0 {
		t.Fatalf("group prox should zero small blocks, got %v", v)
	}
	// Zero vector fixed point.
	v = []float64{0, 0}
	g.Prox(1, v)
	if v[0] != 0 || v[1] != 0 {
		t.Fatal("zero not fixed")
	}
	if got := g.Value([]float64{3, 4, -2}); math.Abs(got-7) > 1e-14 {
		t.Fatalf("group value = %v, want 7", got)
	}
	if g.Name() != "group-lasso" {
		t.Fatal("name")
	}
}

// TestL1FixedMatchesFullProx holds L1's fixed-block rule to its promise:
// every block it accepts gets Δ = +0, bit for bit, from the full path at
// every step size that path can take, and a gradient one ulp past λ, a
// NaN gradient or a nonzero coordinate is refused.
func TestL1FixedMatchesFullProx(t *testing.T) {
	negZero, inf := math.Copysign(0, -1), math.Inf(1)
	etas := []float64{0, math.SmallestNonzeroFloat64, 1, bigEta, inf}
	for _, lambda := range []float64{0, 0.5, 1} {
		r := L1{Lambda: lambda}
		past := math.Nextafter(lambda, inf)
		gs := []float64{0, negZero, lambda, -lambda,
			math.Nextafter(lambda, 0), -math.Nextafter(lambda, 0), past, -past,
			math.NaN(), inf, -inf}
		for _, w := range []float64{0, negZero, 1} {
			for _, g := range gs {
				fixed := r.fixed([]float64{w}, []float64{g})
				if want := w == 0 && math.Abs(g) <= lambda; fixed != want {
					t.Errorf("λ=%v w=%v g=%v: fixed %v, want %v", lambda, w, g, fixed, want)
				}
				if !fixed {
					continue
				}
				wv, delta := []float64{w}, []float64{math.NaN()}
				for _, eta := range etas {
					proxDelta(r, eta, []float64{g}, wv, make([]float64, 1), delta)
					if math.Float64bits(delta[0]) != 0 {
						t.Errorf("λ=%v w=%v g=%v η=%v: full path Δ = %v, the rule writes +0", lambda, w, g, eta, delta[0])
					}
				}
				// λmax ≤ 0 or NaN: prox proxes w itself with η = bigEta.
				proxDelta(r, bigEta, nil, wv, make([]float64, 1), delta)
				if math.Float64bits(delta[0]) != 0 {
					t.Errorf("λ=%v w=%v g=%v, λmax ≤ 0: full path Δ = %v, the rule writes +0", lambda, w, g, delta[0])
				}
			}
		}
	}
	// A block is fixed only if every coordinate is.
	r := L1{Lambda: 1}
	if r.fixed([]float64{0, 0}, []float64{0.5, 1.5}) || r.fixed([]float64{0, 2}, []float64{0.5, 0.5}) {
		t.Error("a block with one movable coordinate was accepted")
	}
	if !r.fixed([]float64{0, negZero, 0}, []float64{1, -1, 0}) {
		t.Error("a fixed 3-block was refused")
	}
}
