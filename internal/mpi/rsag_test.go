package mpi

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestAllreduceRSAGMatchesBinomial(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 5, 6, 7, 8, 11, 16} {
		for _, n := range []int{1, 5, 16, 33, 257} {
			p, n := p, n
			t.Run(fmt.Sprintf("p=%d,n=%d", p, n), func(t *testing.T) {
				results := make([][]float64, p)
				_, err := RunWorld(bg, p, Zero(), WorldOptions{}, func(c *Comm) error {
					data := make([]float64, n)
					for i := range data {
						// Integer-valued so any summation order is exact.
						data[i] = float64((c.Rank()+1)*(i+3)%17 - 8)
					}
					c.AllreduceRSAG(Sum, data)
					results[c.Rank()] = data
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				want := make([]float64, n)
				for r := 0; r < p; r++ {
					for i := range want {
						want[i] += float64((r+1)*(i+3)%17 - 8)
					}
				}
				for r := 0; r < p; r++ {
					for i := range want {
						if results[r][i] != want[i] {
							t.Fatalf("rank %d elem %d: %v want %v", r, i, results[r][i], want[i])
						}
					}
				}
				// Replication invariant: bitwise identical across ranks.
				for r := 1; r < p; r++ {
					for i := range want {
						if results[r][i] != results[0][i] {
							t.Fatalf("rank %d differs from rank 0 at %d", r, i)
						}
					}
				}
			})
		}
	}
}

func TestAllreduceRSAGMax(t *testing.T) {
	_, err := RunWorld(bg, 6, Zero(), WorldOptions{}, func(c *Comm) error {
		data := make([]float64, 40)
		for i := range data {
			data[i] = float64(c.Rank()*40 + i)
		}
		c.AllreduceRSAG(Max, data)
		for i := range data {
			if want := float64(5*40 + i); data[i] != want {
				return fmt.Errorf("rank %d elem %d: %v want %v", c.Rank(), i, data[i], want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// For large messages the bandwidth-optimal algorithm must beat the
// binomial tree on the modeled clock; for tiny ones it falls back.
func TestAllreduceRSAGBandwidthAdvantage(t *testing.T) {
	m := Machine{Alpha: 1e-6, Beta: 1e-9}
	clock := func(n int, rsag bool) float64 {
		stats, err := RunWorld(bg, 8, m, WorldOptions{}, func(c *Comm) error {
			data := make([]float64, n)
			if rsag {
				c.AllreduceRSAG(Sum, data)
			} else {
				c.Allreduce(Sum, data)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return stats.MaxClock()
	}
	big := 1 << 16
	if r, b := clock(big, true), clock(big, false); r >= b {
		t.Fatalf("RSAG %v not faster than binomial %v for %d words", r, b, big)
	}
}

// Property: RSAG equals the binomial Allreduce to roundoff on random
// float inputs for random P.
func TestAllreduceRSAGProperty(t *testing.T) {
	f := func(seed int64, pRaw, nRaw uint8) bool {
		p := 1 + int(pRaw%12)
		n := 1 + int(nRaw%64)
		mk := func(r int) []float64 {
			out := make([]float64, n)
			s := seed + int64(r)*2654435761
			for i := range out {
				s = s*6364136223846793005 + 1442695040888963407
				out[i] = float64(int16(s>>32)) / 256
			}
			return out
		}
		var got, want [][]float64
		run := func(rsag bool, dst *[][]float64) bool {
			*dst = make([][]float64, p)
			_, err := RunWorld(bg, p, Zero(), WorldOptions{}, func(c *Comm) error {
				data := mk(c.Rank())
				if rsag {
					c.AllreduceRSAG(Sum, data)
				} else {
					c.Allreduce(Sum, data)
				}
				(*dst)[c.Rank()] = data
				return nil
			})
			return err == nil
		}
		if !run(true, &got) || !run(false, &want) {
			return false
		}
		for i := range want[0] {
			if math.Abs(got[0][i]-want[0][i]) > 1e-9*(1+math.Abs(want[0][i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
