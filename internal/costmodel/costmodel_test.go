package costmodel

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"saco/internal/mpi"
)

func newsProblem() Problem {
	return Problem{M: 16000, N: 62000, Density: 0.0013, Mu: 8, H: 1000, S: 1, P: 768}
}

func TestLatencyDropsByS(t *testing.T) {
	pb := newsProblem()
	base := pb.LatencyMessages()
	for _, s := range []int{2, 4, 8, 16, 50} {
		got := pb.WithS(s).LatencyMessages()
		want := math.Ceil(float64(pb.H)/float64(s)) / float64(pb.H) * base
		if math.Abs(got-want) > 1e-9*want {
			t.Fatalf("s=%d: latency %v, want %v", s, got, want)
		}
	}
}

func TestBandwidthGrowsWithS(t *testing.T) {
	pb := newsProblem()
	prev := pb.BandwidthWords()
	for _, s := range []int{2, 4, 8, 16} {
		got := pb.WithS(s).BandwidthWords()
		if got <= prev {
			t.Fatalf("s=%d: bandwidth %v did not grow from %v", s, got, prev)
		}
		prev = got
	}
}

// TestClosedFormMatchesAllreduceDAG: a world running only the H/s Gram
// Allreduces charges rank 0 exactly the closed-form communication time at
// power-of-two P. The combines' γ·W per round is computation, not
// communication.
func TestClosedFormMatchesAllreduceDAG(t *testing.T) {
	mc := mpi.CrayXC30()
	for _, p := range []int{2, 4, 8, 16} {
		pb := Problem{M: 1000, N: 500, Density: 0.01, Mu: 4, H: 50, S: 8, P: p}
		words, calls := int(pb.gramWords()), int(pb.outerIters())
		stats, err := mpi.RunWorld(context.Background(), p, mc, mpi.WorldOptions{}, func(c *mpi.Comm) error {
			data := make([]float64, words)
			for range calls {
				if err := c.Allreduce(mpi.Sum, data); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		got, want := stats.PerRank[0].CommTime, pb.CommTime(mc)
		if math.Abs(got-want) > 1e-12*want {
			t.Fatalf("p=%d: DAG comm time %v, closed form %v", p, got, want)
		}
		comp := float64(calls) * pb.logP() * float64(words) * mc.GammaStream
		if got := stats.PerRank[0].CompTime; math.Abs(got-comp) > 1e-12*comp {
			t.Fatalf("p=%d: combine time %v, want γ·W per round = %v", p, got, comp)
		}
	}
}

func TestFlopsGrowLinearlyInS(t *testing.T) {
	// Use few processors so local Gram work (which scales with s)
	// dominates the redundant µ³ term; at the paper's P=768 each rank owns
	// so few rows that the replicated subproblem work dominates instead.
	pb := newsProblem().WithP(4)
	f1 := pb.Flops()
	f8 := pb.WithS(8).Flops()
	// The Gram term dominates; the ratio should be close to 8 but below it
	// because the residual product and eigen terms do not scale with s.
	if ratio := f8 / f1; ratio < 3 || ratio > 8 {
		t.Fatalf("flops ratio s8/s1 = %v, want within (3, 8]", ratio)
	}
}

func TestHalfPackHalvesGramWords(t *testing.T) {
	pb := newsProblem().WithS(16)
	k := float64(pb.S * pb.Mu)
	full := k*k + 2*k
	half := pb.gramWords()
	if half >= full || half < 0.4*full {
		t.Fatalf("half-pack words %v vs full %v", half, full)
	}
}

func TestMemoryGrowsQuadraticallyInS(t *testing.T) {
	pb := newsProblem()
	m1 := pb.MemoryWords()
	m16 := pb.WithS(16).MemoryWords()
	if m16 <= m1 {
		t.Fatal("memory did not grow with s")
	}
	// The s²µ² term: 16²·64 = 16384 extra words minimum.
	if m16-m1 < 16*16*64-64 {
		t.Fatalf("memory delta %v too small", m16-m1)
	}
}

func TestSpeedupShapeOnHighLatencyMachine(t *testing.T) {
	// On a latency-dominated machine, moderate s must speed things up and
	// the speedup must eventually decay as bandwidth takes over.
	pb := Problem{M: 100000, N: 50000, Density: 0.001, Mu: 4, H: 1000, P: 1024}
	mc := mpi.SparkLike()
	t1 := pb.Time(mc)
	t16 := pb.WithS(16).Time(mc)
	if t16 >= t1 {
		t.Fatalf("s=16 not faster on Spark-like machine: %v vs %v", t16, t1)
	}
	sStar := OptimalS(pb, mc, 4096)
	tStar := pb.WithS(sStar).Time(mc)
	tHuge := pb.WithS(4096).Time(mc)
	if tHuge < tStar {
		t.Fatal("model has no bandwidth penalty at huge s")
	}
	if sStar < 2 {
		t.Fatalf("optimal s = %d on a high-latency machine", sStar)
	}
}

func TestSpeedupComponentsConsistent(t *testing.T) {
	pb := newsProblem().WithS(8)
	mc := mpi.CrayXC30()
	base := pb.WithS(1)
	total := base.Time(mc) / pb.Time(mc)
	comm := base.CommTime(mc) / pb.CommTime(mc)
	comp := base.CompTime(mc) / pb.CompTime(mc)
	if total <= 0 || comm <= 0 || comp <= 0 {
		t.Fatalf("non-positive speedups: %v %v %v", total, comm, comp)
	}
	// Total must lie between the min and max of the components.
	lo, hi := math.Min(comm, comp), math.Max(comm, comp)
	if total < lo-1e-9 || total > hi+1e-9 {
		t.Fatalf("total %v outside [%v, %v]", total, lo, hi)
	}
}

func TestCacheKneeReducesComputeGain(t *testing.T) {
	// µ = 1: classical CD streams individual dot products (BLAS-1) while
	// the SA Gram runs blocked (BLAS-3) — this is the Fig. 4e–h setting
	// where the paper observes a computation speedup > 1 at moderate s.
	pb := Problem{M: 100000, N: 50000, Density: 0.01, Mu: 1, H: 100, P: 64}
	mc := mpi.CrayXC30()
	small := pb.WithS(4)
	// Choose s so the Gram working set s²µ² exceeds the cache.
	huge := pb.WithS(4096)
	compSmall := pb.WithS(1).CompTime(mc) / small.CompTime(mc)
	compHuge := pb.WithS(1).CompTime(mc) / huge.CompTime(mc)
	if compSmall <= 1 {
		t.Fatalf("moderate s should gain from BLAS-3 rate, got %v", compSmall)
	}
	if compHuge >= compSmall {
		t.Fatalf("cache knee missing: comp speedup %v at s=4096 vs %v at s=4", compHuge, compSmall)
	}
}

func TestOptimalSScalesWithLatency(t *testing.T) {
	pb := Problem{M: 500000, N: 100000, Density: 0.0001, Mu: 1, H: 10000, P: 4096}
	sCray := OptimalS(pb, mpi.CrayXC30(), 2048)
	sSpark := OptimalS(pb, mpi.SparkLike(), 2048)
	if sSpark <= sCray {
		t.Fatalf("optimal s should grow with latency: cray=%d spark=%d", sCray, sSpark)
	}
}

func TestTimeMonotoneInP(t *testing.T) {
	// More processors cannot slow the modeled compute phase; total time
	// may rise from the logP terms, but compute strictly shrinks.
	pb := newsProblem()
	mc := mpi.CrayXC30()
	if pb.WithP(2*pb.P).CompTime(mc) >= pb.CompTime(mc) {
		t.Fatal("compute time did not shrink with P")
	}
}

// Property: when H is divisible by both s and s+1 (no ceiling boundary
// effects), latency messages decrease in s and bandwidth words increase.
func TestMonotonicityProperty(t *testing.T) {
	f := func(mRaw, nRaw uint16, muRaw, sRaw uint8, pRaw uint16) bool {
		s := 1 + int(sRaw%100)
		pb := Problem{
			M:       1000 + int(mRaw),
			N:       1000 + int(nRaw),
			Density: 0.01,
			Mu:      1 + int(muRaw%16),
			H:       10 * s * (s + 1),
			S:       s,
			P:       2 + int(pRaw%1000),
		}
		s2 := pb.WithS(s + 1)
		return s2.LatencyMessages() <= pb.LatencyMessages()+1e-9 &&
			s2.BandwidthWords() >= pb.BandwidthWords()-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestP1HasNoCommunication(t *testing.T) {
	pb := newsProblem().WithP(1)
	if pb.LatencyMessages() != 0 || pb.BandwidthWords() != 0 {
		t.Fatal("P=1 should have zero communication")
	}
	if pb.CommTime(mpi.CrayXC30()) != 0 {
		t.Fatal("P=1 comm time nonzero")
	}
}
