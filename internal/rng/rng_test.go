package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminismAcrossStreams(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams with different seeds matched %d/100 draws", same)
	}
}

func TestZeroSeedIsUsable(t *testing.T) {
	r := New(0)
	v := r.Uint64()
	if v == 0 && r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed produced a stuck stream")
	}
}

func TestIntnRange(t *testing.T) {
	r := New(3)
	counts := make([]int, 5)
	for i := 0; i < 5000; i++ {
		v := r.Intn(5)
		if v < 0 || v >= 5 {
			t.Fatalf("Intn out of range: %d", v)
		}
		counts[v]++
	}
	// Roughly uniform: each bucket should land near 1000.
	for i, c := range counts {
		if c < 800 || c > 1200 {
			t.Fatalf("Intn bucket %d count %d outside [800,1200]", i, c)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	var sum float64
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
		sum += v
	}
	if mean := sum / 10000; mean < 0.47 || mean > 0.53 {
		t.Fatalf("Float64 mean %v far from 0.5", mean)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(6)
	n := 20000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if math.Abs(mean) > 0.05 {
		t.Fatalf("normal mean %v too far from 0", mean)
	}
	if math.Abs(variance-1) > 0.1 {
		t.Fatalf("normal variance %v too far from 1", variance)
	}
}

func TestSampleKDistinctAndInRange(t *testing.T) {
	f := func(seed uint64, nRaw, kRaw uint8) bool {
		n := 1 + int(nRaw)
		k := int(kRaw) % (n + 1)
		r := New(seed)
		s := r.SampleK(n, k)
		if len(s) != k {
			return false
		}
		seen := make(map[int]bool, k)
		for _, v := range s {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSampleKFullRangeIsPermutation(t *testing.T) {
	r := New(9)
	s := r.SampleK(10, 10)
	seen := make([]bool, 10)
	for _, v := range s {
		seen[v] = true
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("SampleK(10,10) missing %d", i)
		}
	}
}

func TestSampleKUniformity(t *testing.T) {
	// Each element of [0,10) should appear in a 3-sample with probability
	// 3/10; verify empirically within generous bounds.
	r := New(10)
	counts := make([]int, 10)
	trials := 20000
	for tr := 0; tr < trials; tr++ {
		for _, v := range r.SampleK(10, 3) {
			counts[v]++
		}
	}
	want := float64(trials) * 0.3
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 0.08*want {
			t.Fatalf("element %d drawn %d times, want about %.0f", i, c, want)
		}
	}
}

// TestSampleKIntoSameDraws: the reusable-destination form consumes the
// stream exactly as SampleK does — equal seeds, equal draws, call after
// call with one dirty table — and allocates nothing.
func TestSampleKIntoSameDraws(t *testing.T) {
	a, b := New(77), New(77)
	swaps := NewSwaps(40)
	swaps[3], swaps[17] = [2]int{4, 9}, [2]int{1001, 1} // cleared by the call
	for iter := 0; iter < 200; iter++ {
		n := 1 + iter%40
		out := make([]int, iter%(n+1))
		b.SampleKInto(n, out, swaps)
		for i, want := range a.SampleK(n, len(out)) {
			if out[i] != want {
				t.Fatalf("iter %d: SampleKInto drew %v, SampleK drew %d at %d", iter, out, want, i)
			}
		}
	}
	out := make([]int, 8)
	if n := testing.AllocsPerRun(50, func() { b.SampleKInto(1_000_000, out, swaps) }); n != 0 {
		t.Fatalf("SampleKInto allocates %v times per call", n)
	}
}

// mapSampleKInto is the sampler as it was with a map of swaps, kept as
// the oracle of the table: the same Intn calls and the same swap rule.
func mapSampleKInto(r *Stream, n int, out []int) {
	swaps := make(map[int]int, len(out))
	for i := range out {
		j := i + r.Intn(n-i)
		vi, ok := swaps[i]
		if !ok {
			vi = i
		}
		vj, ok := swaps[j]
		if !ok {
			vj = j
		}
		out[i] = vj
		swaps[j] = vi
	}
}

// TestSampleKIntoMatchesMapOracle: the open-addressed table draws what
// the map drew, over population sizes around the table's and a word's
// edges and draw counts up to the whole population, 200 draws each, on
// one table that every call reuses.
func TestSampleKIntoMatchesMapOracle(t *testing.T) {
	for _, n := range []int{1, 2, 7, 8, 9, 100, 8192} {
		for _, k := range []int{0, 1, 2, 8, 16, 64, n} {
			if k > n {
				continue
			}
			a, b := New(uint64(1000*n+k)), New(uint64(1000*n+k))
			got, want := make([]int, k), make([]int, k)
			swaps := NewSwaps(k)
			if len(swaps) < 2*k || len(swaps)&(len(swaps)-1) != 0 {
				t.Fatalf("NewSwaps(%d) has %d slots, want a power of two ≥ %d", k, len(swaps), 2*k)
			}
			for rep := 0; rep < 200; rep++ {
				a.SampleKInto(n, got, swaps)
				mapSampleKInto(b, n, want)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("n=%d k=%d draw %d: table drew %v, map drew %v", n, k, rep, got, want)
					}
				}
			}
			if a.Uint64() != b.Uint64() {
				t.Fatalf("n=%d k=%d: the table and the map consumed the stream differently", n, k)
			}
		}
	}
}

// TestSampleKIntoRefusesSmallTable: a table with fewer than 2k slots, or
// one whose length is not a power of two, could fill up; it is refused.
func TestSampleKIntoRefusesSmallTable(t *testing.T) {
	for _, slots := range []int{0, 8, 15, 24} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("SampleKInto(8 draws) accepted a %d-slot table", slots)
				}
			}()
			New(1).SampleKInto(100, make([]int, 8), make(Swaps, slots))
		}()
	}
}

func TestSampleKDeterministicAcrossRanks(t *testing.T) {
	// The replicated-seed discipline: every "rank" reproduces the same
	// coordinate choices with no communication.
	ranks := make([]*Stream, 4)
	for i := range ranks {
		ranks[i] = New(12345)
	}
	for iter := 0; iter < 50; iter++ {
		ref := ranks[0].SampleK(1000, 8)
		for rk := 1; rk < 4; rk++ {
			got := ranks[rk].SampleK(1000, 8)
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("rank %d diverged at iter %d", rk, iter)
				}
			}
		}
	}
}

func BenchmarkSampleK(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		r.SampleK(1_000_000, 8)
	}
}

func TestStateRoundTrip(t *testing.T) {
	r := New(99)
	// Burn an odd number of normal draws so the spare variate is cached.
	r.NormFloat64()
	st := r.State()
	if !st.HasSpare {
		t.Fatalf("expected a cached spare variate after one NormFloat64")
	}
	want := make([]float64, 64)
	for i := range want {
		switch i % 3 {
		case 0:
			want[i] = r.Float64()
		case 1:
			want[i] = float64(r.Intn(1 << 20))
		default:
			want[i] = r.NormFloat64()
		}
	}
	r2 := New(7) // different seed: SetState must fully overwrite it
	r2.SetState(st)
	for i := range want {
		var got float64
		switch i % 3 {
		case 0:
			got = r2.Float64()
		case 1:
			got = float64(r2.Intn(1 << 20))
		default:
			got = r2.NormFloat64()
		}
		if got != want[i] {
			t.Fatalf("draw %d after SetState: %.17g != %.17g", i, got, want[i])
		}
	}
}
