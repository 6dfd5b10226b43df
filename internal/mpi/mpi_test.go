package mpi

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

var testPs = []int{1, 2, 3, 4, 5, 7, 8, 13, 16}

func TestBlockRange(t *testing.T) {
	for _, p := range testPs {
		for _, n := range []int{0, 1, p - 1, p, p + 1, 10 * p, 10*p + 3} {
			if n < 0 {
				continue
			}
			prev := 0
			total := 0
			for r := 0; r < p; r++ {
				lo, hi := BlockRange(n, p, r)
				if lo != prev {
					t.Fatalf("n=%d p=%d r=%d: lo=%d, want %d", n, p, r, lo, prev)
				}
				if hi < lo {
					t.Fatalf("n=%d p=%d r=%d: hi<lo", n, p, r)
				}
				if sz := hi - lo; sz != n/p && sz != n/p+1 {
					t.Fatalf("n=%d p=%d r=%d: unbalanced size %d", n, p, r, sz)
				}
				prev = hi
				total += hi - lo
			}
			if prev != n || total != n {
				t.Fatalf("n=%d p=%d: ranges do not cover (end=%d)", n, p, prev)
			}
		}
	}
}

func TestSendRecvPingPong(t *testing.T) {
	stats, err := RunWorld(bg, 2, Zero(), WorldOptions{}, func(c *Comm) error {
		if c.Rank() == 0 {
			if err := c.Send(1, 7, []float64{1, 2, 3}); err != nil {
				return err
			}
			back, err := c.Recv(1, 8)
			if err != nil {
				return err
			}
			if len(back) != 1 || back[0] != 6 {
				return fmt.Errorf("got %v", back)
			}
		} else {
			in, err := c.Recv(0, 7)
			if err != nil {
				return err
			}
			return c.Send(0, 8, []float64{in[0] + in[1] + in[2]})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.TotalMsgs() != 2 || stats.TotalWords() != 4 {
		t.Fatalf("msgs=%d words=%d", stats.TotalMsgs(), stats.TotalWords())
	}
}

func TestSendCopiesPayload(t *testing.T) {
	_, err := RunWorld(bg, 2, Zero(), WorldOptions{}, func(c *Comm) error {
		if c.Rank() == 0 {
			buf := []float64{42}
			c.Send(1, 0, buf)
			buf[0] = -1 // mutate after send; receiver must still see 42
			c.Barrier()
		} else {
			in, err := c.Recv(0, 0)
			if err != nil {
				return err
			}
			c.Barrier()
			if in[0] != 42 {
				return fmt.Errorf("payload mutated in flight: %v", in[0])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllreduceSumAllSizes(t *testing.T) {
	for _, p := range testPs {
		p := p
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			results := make([][]float64, p)
			_, err := RunWorld(bg, p, Zero(), WorldOptions{}, func(c *Comm) error {
				data := []float64{float64(c.Rank() + 1), float64(c.Rank() * 2), -1}
				c.Allreduce(Sum, data)
				results[c.Rank()] = data
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			wantA := float64(p*(p+1)) / 2
			wantB := float64(p * (p - 1))
			for r, got := range results {
				if got[0] != wantA || got[1] != wantB || got[2] != float64(-p) {
					t.Fatalf("rank %d: %v, want [%v %v %v]", r, got, wantA, wantB, float64(-p))
				}
			}
			// Bitwise-identical across ranks (replication invariant).
			for r := 1; r < p; r++ {
				for i := range results[0] {
					if results[r][i] != results[0][i] {
						t.Fatalf("rank %d result differs from rank 0", r)
					}
				}
			}
		})
	}
}

func TestAllreduceMax(t *testing.T) {
	_, err := RunWorld(bg, 5, Zero(), WorldOptions{}, func(c *Comm) error {
		data := []float64{float64(c.Rank()), -float64(c.Rank())}
		c.Allreduce(Max, data)
		if data[0] != 4 || data[1] != 0 {
			return fmt.Errorf("rank %d: %v", c.Rank(), data)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllreduceScalar(t *testing.T) {
	_, err := RunWorld(bg, 4, Zero(), WorldOptions{}, func(c *Comm) error {
		got, err := c.AllreduceScalar(Sum, 1.5)
		if err != nil {
			return err
		}
		if got != 6 {
			return fmt.Errorf("sum = %v", got)
		}
		got, err = c.AllreduceScalar(Max, float64(c.Rank()))
		if err != nil {
			return err
		}
		if got != 3 {
			return fmt.Errorf("max = %v", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBcastFromEveryRoot(t *testing.T) {
	for _, p := range []int{1, 2, 3, 6, 8} {
		for root := 0; root < p; root++ {
			_, err := RunWorld(bg, p, Zero(), WorldOptions{}, func(c *Comm) error {
				data := make([]float64, 4)
				if c.Rank() == root {
					for i := range data {
						data[i] = float64(100*root + i)
					}
				}
				c.Bcast(root, data)
				for i := range data {
					if data[i] != float64(100*root+i) {
						return fmt.Errorf("rank %d got %v", c.Rank(), data)
					}
				}
				return nil
			})
			if err != nil {
				t.Fatalf("p=%d root=%d: %v", p, root, err)
			}
		}
	}
}

func TestReduceToEveryRoot(t *testing.T) {
	for _, p := range []int{2, 3, 5, 8} {
		for root := 0; root < p; root++ {
			_, err := RunWorld(bg, p, Zero(), WorldOptions{}, func(c *Comm) error {
				data := []float64{1}
				c.Reduce(root, Sum, data)
				if c.Rank() == root && data[0] != float64(p) {
					return fmt.Errorf("root got %v, want %d", data[0], p)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("p=%d root=%d: %v", p, root, err)
			}
		}
	}
}

func TestBarrierNoDeadlockAndOrdering(t *testing.T) {
	// Ranks do asymmetric pre-barrier work; the barrier must still match.
	_, err := RunWorld(bg, 8, CrayXC30(), WorldOptions{}, func(c *Comm) error {
		for i := 0; i < c.Rank(); i++ {
			c.Compute(1e6)
		}
		c.Barrier()
		c.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTagMismatchError: a mismatched SPMD program (sender on tag 1, the
// receiver expecting tag 2) must fail with a tagged *PeerError naming
// both ranks — historically this panicked the whole world.
func TestTagMismatchError(t *testing.T) {
	_, err := RunWorld(bg, 2, Zero(), WorldOptions{}, func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 1, []float64{1})
		}
		_, err := c.Recv(0, 2)
		if err == nil {
			return errors.New("expected tag mismatch error")
		}
		return err
	})
	if !errors.Is(err, ErrTagMismatch) {
		t.Fatalf("err = %v, want ErrTagMismatch", err)
	}
	var pe *PeerError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %T, want *PeerError", err)
	}
	if pe.Rank != 1 || pe.Peer != 0 || pe.Op != "recv" || pe.Tag != 2 {
		t.Fatalf("PeerError = %+v, want rank 1 recv from 0 tag 2", pe)
	}
}

func TestRunErrorPropagation(t *testing.T) {
	want := errors.New("boom")
	_, err := RunWorld(bg, 3, Zero(), WorldOptions{}, func(c *Comm) error {
		if c.Rank() == 1 {
			return want
		}
		return nil
	})
	if !errors.Is(err, want) {
		t.Fatalf("err = %v", err)
	}
	if _, err := RunWorld(bg, 0, Zero(), WorldOptions{}, func(*Comm) error { return nil }); err == nil {
		t.Fatal("expected error for p=0")
	}
}

func TestVirtualClockSingleMessage(t *testing.T) {
	m := Machine{Alpha: 1e-6, Beta: 1e-9}
	stats, err := RunWorld(bg, 2, m, WorldOptions{}, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 0, make([]float64, 1000))
		} else {
			c.Recv(0, 0)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := 1e-6 + 1e-9*1000
	if got := stats.MaxClock(); math.Abs(got-want) > 1e-15 {
		t.Fatalf("clock = %v, want %v", got, want)
	}
	if stats.PerRank[1].CommTime <= 0 {
		t.Fatal("receiver comm time not charged")
	}
}

func TestVirtualClockComputeKinds(t *testing.T) {
	m := CrayXC30()
	stats, err := RunWorld(bg, 1, m, WorldOptions{}, func(c *Comm) error {
		c.Compute(1e6)                             // stream rate
		c.ComputeBlockedParallel(1e6, 1000)        // fits in cache: blocked rate
		c.ComputeBlockedParallel(1e6, 100_000_000) // blows cache: stream rate
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := 1e6*m.GammaStream + 1e6*m.GammaBlocked + 1e6*m.GammaStream
	if got := stats.MaxClock(); math.Abs(got-want)/want > 1e-12 {
		t.Fatalf("clock = %v, want %v", got, want)
	}
	if stats.PerRank[0].Flops != 3e6 {
		t.Fatalf("flops = %v", stats.PerRank[0].Flops)
	}
}

func TestAllreduceLatencyScalesLogP(t *testing.T) {
	m := Machine{Alpha: 1e-3} // latency only
	clock := func(p int) float64 {
		stats, err := RunWorld(bg, p, m, WorldOptions{}, func(c *Comm) error {
			c.Allreduce(Sum, []float64{1})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return stats.MaxClock()
	}
	c4, c16 := clock(4), clock(16)
	// Binomial reduce+bcast: ~2·log₂P rounds of α. Doubling log₂P from 2
	// to 4 should roughly double the modeled time, certainly not 4x.
	if ratio := c16 / c4; ratio < 1.5 || ratio > 3.0 {
		t.Fatalf("latency ratio p16/p4 = %v, want about 2", ratio)
	}
}

func TestAllreduceMessageCount(t *testing.T) {
	stats, err := RunWorld(bg, 8, Zero(), WorldOptions{}, func(c *Comm) error {
		c.Allreduce(Sum, []float64{1})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Binomial reduce: 7 messages; binomial bcast: 7 messages.
	if got := stats.TotalMsgs(); got != 14 {
		t.Fatalf("msgs = %d, want 14", got)
	}
}

func TestDeterministicClocks(t *testing.T) {
	run := func() (float64, float64) {
		stats, err := RunWorld(bg, 6, CrayXC30(), WorldOptions{}, func(c *Comm) error {
			data := make([]float64, 64)
			for i := range data {
				data[i] = float64(c.Rank()*64 + i)
			}
			for it := 0; it < 10; it++ {
				c.Compute(float64(1000 * (c.Rank() + 1)))
				c.Allreduce(Sum, data)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return stats.MaxClock(), stats.MaxComm()
	}
	a1, b1 := run()
	a2, b2 := run()
	if a1 != a2 || b1 != b2 {
		t.Fatalf("virtual clocks nondeterministic: (%v,%v) vs (%v,%v)", a1, b1, a2, b2)
	}
}

// Property: Allreduce(Sum) over random vectors equals the sequential sum,
// for random processor counts.
func TestAllreduceSumProperty(t *testing.T) {
	f := func(seed int64, pRaw, nRaw uint8) bool {
		p := 1 + int(pRaw%9)
		n := 1 + int(nRaw%17)
		inputs := make([][]float64, p)
		for r := range inputs {
			inputs[r] = make([]float64, n)
			for i := range inputs[r] {
				seed = seed*6364136223846793005 + 1442695040888963407
				inputs[r][i] = float64(int8(seed >> 32))
			}
		}
		want := make([]float64, n)
		for _, in := range inputs {
			for i, v := range in {
				want[i] += v
			}
		}
		ok := true
		_, err := RunWorld(bg, p, Zero(), WorldOptions{}, func(c *Comm) error {
			data := append([]float64(nil), inputs[c.Rank()]...)
			c.Allreduce(Sum, data)
			for i := range data {
				if math.Abs(data[i]-want[i]) > 1e-9 {
					ok = false
				}
			}
			return nil
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestMachinePresets(t *testing.T) {
	for _, m := range []Machine{CrayXC30(), EthernetCluster(), SparkLike()} {
		if m.Alpha <= 0 || m.Beta <= 0 || m.GammaStream <= 0 || m.GammaBlocked <= 0 {
			t.Fatalf("%s: non-positive cost parameter", m.Name)
		}
		if m.GammaBlocked >= m.GammaStream {
			t.Fatalf("%s: blocked rate should beat streaming rate", m.Name)
		}
	}
	if SparkLike().Alpha <= CrayXC30().Alpha {
		t.Fatal("Spark-like latency should exceed Cray latency")
	}
}

func TestElapsedAndMachineAccessors(t *testing.T) {
	m := CrayXC30()
	_, err := RunWorld(bg, 2, m, WorldOptions{}, func(c *Comm) error {
		if c.Machine().Name != m.Name {
			return errors.New("machine accessor mismatch")
		}
		before := c.Elapsed()
		c.Compute(1e6)
		if c.Elapsed() <= before {
			return errors.New("Elapsed did not advance")
		}
		if c.Size() != 2 {
			return errors.New("bad size")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRunHybridComputeParallel pins the hybrid cost accounting: the
// parallel variants divide modeled time by the core budget, charge the
// full flop count as work, and plain Compute is unaffected. Run must be
// exactly RunHybrid with one core.
func TestRunHybridComputeParallel(t *testing.T) {
	m := Machine{GammaStream: 1e-9, GammaBlocked: 2.5e-10, CacheWords: 1000}
	stats, err := RunWorld(bg, 1, m, WorldOptions{Cores: 4}, func(c *Comm) error {
		if c.cores != 4 {
			return fmt.Errorf("cores = %d", c.cores)
		}
		c.Compute(1e6)                         // 1e6·γs
		c.ComputeParallel(1e6)                 // 1e6/4·γs
		c.ComputeBlockedParallel(1e6, 100)     // 1e6/4·γb (fits cache)
		c.ComputeBlockedParallel(1e6, 100_000) // 1e6/4·γs (spills cache)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := 1e6*m.GammaStream + 1e6/4*m.GammaStream + 1e6/4*m.GammaBlocked + 1e6/4*m.GammaStream
	if got := stats.MaxClock(); math.Abs(got-want)/want > 1e-12 {
		t.Fatalf("hybrid clock = %v, want %v", got, want)
	}
	if stats.PerRank[0].Flops != 4e6 {
		t.Fatalf("flops = %v, want full work counted", stats.PerRank[0].Flops)
	}

	flat, err := RunWorld(bg, 1, m, WorldOptions{}, func(c *Comm) error {
		if c.cores != 1 {
			return fmt.Errorf("flat cores = %d", c.cores)
		}
		c.Compute(1e6)
		c.ComputeParallel(1e6) // = Compute at one core
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := flat.MaxClock(), 2e6*m.GammaStream; math.Abs(got-want)/want > 1e-12 {
		t.Fatalf("flat clock = %v, want %v", got, want)
	}
	if _, err := RunWorld(bg, 1, m, WorldOptions{Cores: 0}, func(c *Comm) error {
		if c.cores != 1 {
			return fmt.Errorf("cores clamp: %d", c.cores)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
