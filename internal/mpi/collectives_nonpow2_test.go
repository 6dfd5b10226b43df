package mpi

import (
	"fmt"
	"testing"
)

// Non-power-of-two rank counts are where tree collectives break:
// recursive doubling fans a short upper half out to the lower ranks
// without an XOR partner. These tests pin that machinery at the awkward
// counts (3, 5, 6, 7, 9, 11, 12, 13) with data sizes around the rank
// count — and run every case over both transports (the simulated world
// and the loopback TCP mesh), which is the collective-level half of the
// sim/TCP parity contract. TestAllreduceMatchesBinomialOracle pins
// Allreduce's bits at every P up to 17.

// nonPow2Ps are rank counts with every "shape" of raggedness: one above
// a power of two (5, 9), one below (3, 7), and composites (6, 12).
var nonPow2Ps = []int{3, 5, 6, 7, 9, 11, 12, 13}

// TestAllreduceNonPow2Boundaries drives Allreduce's fan-out rounds at
// ragged counts with message sizes one below, at and one past the rank
// count, and sizes no power of two divides.
func TestAllreduceNonPow2Boundaries(t *testing.T) {
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			for _, p := range nonPow2Ps {
				for _, n := range []int{p - 1, p, p + 1, 2*p + 1, 65} {
					if n <= 0 {
						continue
					}
					results := make([][]float64, p)
					_, err := RunWorld(bg, p, Machine{}, tr.opt, func(c *Comm) error {
						data := make([]float64, n)
						for i := range data {
							// Integer-valued so any combine order is exact.
							data[i] = float64((c.Rank()+2)*(i+1)%23 - 11)
						}
						if err := c.Allreduce(Sum, data); err != nil {
							return err
						}
						results[c.Rank()] = data
						return nil
					})
					if err != nil {
						t.Fatalf("p=%d n=%d: %v", p, n, err)
					}
					want := make([]float64, n)
					for r := 0; r < p; r++ {
						for i := range want {
							want[i] += float64((r+2)*(i+1)%23 - 11)
						}
					}
					for r := 0; r < p; r++ {
						for i := range want {
							if results[r][i] != want[i] {
								t.Fatalf("p=%d n=%d rank %d elem %d: %v want %v", p, n, r, i, results[r][i], want[i])
							}
						}
					}
				}
			}
		})
	}
}

// TestAllreduceNonPow2RanksCharged: at ragged counts some ranks have no
// partner in a round (no upper half) or serve several lower ranks (a
// short upper half); every rank's virtual clock must still advance, so
// no rank reports a zero clock on a costed machine. Across transports
// the clocks must also agree bitwise — the piggybacked clocks carry the
// cost model over the wire unchanged.
func TestAllreduceNonPow2RanksCharged(t *testing.T) {
	m := Machine{Alpha: 1e-6, Beta: 1e-9}
	for _, p := range []int{5, 6, 7, 9} {
		clocks := make(map[string][]float64)
		for _, tr := range transports {
			stats, err := RunWorld(bg, p, m, tr.opt, func(c *Comm) error {
				data := make([]float64, 4*p)
				return c.Allreduce(Sum, data)
			})
			if err != nil {
				t.Fatalf("%s p=%d: %v", tr.name, p, err)
			}
			for r, st := range stats.PerRank {
				if st.Clock <= 0 {
					t.Fatalf("%s p=%d rank %d: zero clock after Allreduce", tr.name, p, r)
				}
				clocks[tr.name] = append(clocks[tr.name], st.Clock)
			}
		}
		for r := 0; r < p; r++ {
			if clocks["sim"][r] != clocks["tcp"][r] {
				t.Fatalf("p=%d rank %d: modeled clock differs sim=%v tcp=%v", p, r, clocks["sim"][r], clocks["tcp"][r])
			}
		}
	}
}

// TestMixedCollectiveSequenceNonPow2 runs a solver-shaped sequence — a
// one-word allreduce, a length-p allreduce, a scalar max, barrier — at
// ragged counts to catch tag/sequence skew between collectives of
// different shapes.
func TestMixedCollectiveSequenceNonPow2(t *testing.T) {
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			for _, p := range nonPow2Ps {
				_, err := RunWorld(bg, p, Machine{}, tr.opt, func(c *Comm) error {
					v := []float64{1}
					if err := c.Allreduce(Sum, v); err != nil {
						return err
					}
					if v[0] != float64(p) {
						return fmt.Errorf("allreduce got %v", v[0])
					}
					w := make([]float64, p)
					w[c.Rank()] = 1
					if err := c.Allreduce(Sum, w); err != nil {
						return err
					}
					for i, x := range w {
						if x != 1 {
							return fmt.Errorf("length-p allreduce got %v at %d", x, i)
						}
					}
					if got, err := c.AllreduceScalar(Max, float64(c.Rank())); err != nil {
						return err
					} else if got != float64(p-1) {
						return fmt.Errorf("allreduce max got %v", got)
					}
					return c.Barrier()
				})
				if err != nil {
					t.Fatalf("p=%d: %v", p, err)
				}
			}
		})
	}
}
