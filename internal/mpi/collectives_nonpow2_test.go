package mpi

import (
	"fmt"
	"testing"
)

// Non-power-of-two rank counts are where tree collectives break: the
// binomial trees handle a ragged top level, and Rabenseifner's allreduce
// folds the p − 2^⌊log₂p⌋ extra ranks into partners in a pre/post phase.
// These tests pin that machinery at the awkward counts (3, 5, 6, 7, 9,
// 11, 12, 13) with data sizes straddling the algorithms' internal
// boundaries — and run every case over both transports (the simulated
// world and the loopback TCP mesh), which is the collective-level half
// of the sim/TCP parity contract.

// nonPow2Ps are rank counts with every "shape" of raggedness: one above
// a power of two (5, 9), one below (3, 7), and composites (6, 12).
var nonPow2Ps = []int{3, 5, 6, 7, 9, 11, 12, 13}

// TestReduceNonPow2AllRoots: binomial reduce must deliver the exact sum
// to every possible root at ragged rank counts (the virtual-rank
// rotation is where off-by-ones would hide).
func TestReduceNonPow2AllRoots(t *testing.T) {
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			for _, p := range nonPow2Ps {
				for root := 0; root < p; root++ {
					_, err := RunWorld(bg, p, Zero(), tr.opt, func(c *Comm) error {
						data := []float64{float64(c.Rank() + 1), float64((c.Rank() + 1) * (c.Rank() + 1))}
						if err := c.Reduce(root, Sum, data); err != nil {
							return err
						}
						if c.Rank() == root {
							wantA := float64(p*(p+1)) / 2
							wantB := float64(p*(p+1)*(2*p+1)) / 6
							if data[0] != wantA || data[1] != wantB {
								return fmt.Errorf("root %d/%d got %v, want [%v %v]", root, p, data, wantA, wantB)
							}
						}
						return nil
					})
					if err != nil {
						t.Fatalf("p=%d root=%d: %v", p, root, err)
					}
				}
			}
		})
	}
}

// TestBcastNonPow2LastRootChain: broadcasting from the last rank at
// ragged counts exercises the deepest wrap-around of the virtual-rank
// mapping.
func TestBcastNonPow2LastRootChain(t *testing.T) {
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			for _, p := range nonPow2Ps {
				root := p - 1
				_, err := RunWorld(bg, p, Zero(), tr.opt, func(c *Comm) error {
					data := make([]float64, 7)
					if c.Rank() == root {
						for i := range data {
							data[i] = float64(1000 + i)
						}
					}
					if err := c.Bcast(root, data); err != nil {
						return err
					}
					for i := range data {
						if data[i] != float64(1000+i) {
							return fmt.Errorf("rank %d/%d got %v", c.Rank(), p, data)
						}
					}
					// A second, dependent collective catches sequence-number skew
					// left behind by a ragged first one.
					if got, err := c.AllreduceScalar(Sum, 1); err != nil {
						return err
					} else if got != float64(p) {
						return fmt.Errorf("follow-up allreduce got %v", got)
					}
					return nil
				})
				if err != nil {
					t.Fatalf("p=%d: %v", p, err)
				}
			}
		})
	}
}

// TestAllreduceRSAGNonPow2Boundaries drives Rabenseifner's allreduce
// through its fold-in pre/post phase at ragged counts, with message
// sizes exactly at the fallback boundary (len < p falls back to the
// binomial tree), one past it, and sizes that do not divide evenly
// through the recursive halving.
func TestAllreduceRSAGNonPow2Boundaries(t *testing.T) {
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			for _, p := range nonPow2Ps {
				for _, n := range []int{p - 1, p, p + 1, 2*p + 1, 65} {
					if n <= 0 {
						continue
					}
					results := make([][]float64, p)
					_, err := RunWorld(bg, p, Zero(), tr.opt, func(c *Comm) error {
						data := make([]float64, n)
						for i := range data {
							// Integer-valued so any combine order is exact.
							data[i] = float64((c.Rank()+2)*(i+1)%23 - 11)
						}
						if err := c.AllreduceRSAG(Sum, data); err != nil {
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

// TestAllreduceRSAGNonPow2FoldedRanksCharged: the folded odd ranks of
// the pre-phase sit idle during the halving; their virtual clocks must
// still advance to the post-phase delivery (waiting is communication
// time), so no rank reports a zero clock on a costed machine. Across
// transports the clocks must also agree bitwise — the piggybacked
// clocks carry the cost model over the wire unchanged.
func TestAllreduceRSAGNonPow2FoldedRanksCharged(t *testing.T) {
	m := Machine{Alpha: 1e-6, Beta: 1e-9}
	for _, p := range []int{5, 6, 7, 9} {
		clocks := make(map[string][]float64)
		for _, tr := range transports {
			stats, err := RunWorld(bg, p, m, tr.opt, func(c *Comm) error {
				data := make([]float64, 4*p)
				return c.AllreduceRSAG(Sum, data)
			})
			if err != nil {
				t.Fatalf("%s p=%d: %v", tr.name, p, err)
			}
			for r, st := range stats.PerRank {
				if st.Clock <= 0 {
					t.Fatalf("%s p=%d rank %d: zero clock after RSAG", tr.name, p, r)
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

// TestMixedCollectiveSequenceNonPow2 runs a solver-shaped sequence —
// reduce, bcast, allreduce, barrier — at ragged counts to catch
// tag/sequence skew between collectives of different shapes.
func TestMixedCollectiveSequenceNonPow2(t *testing.T) {
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			for _, p := range nonPow2Ps {
				_, err := RunWorld(bg, p, Zero(), tr.opt, func(c *Comm) error {
					v := []float64{1}
					if err := c.Reduce(p/2, Sum, v); err != nil {
						return err
					}
					if c.Rank() == p/2 && v[0] != float64(p) {
						return fmt.Errorf("reduce got %v", v[0])
					}
					if err := c.Bcast(p/2, v); err != nil {
						return err
					}
					if v[0] != float64(p) {
						return fmt.Errorf("bcast got %v", v[0])
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
