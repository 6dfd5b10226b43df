package core

import (
	"math"
	"runtime"
	"testing"
)

// The classical algorithms (Alg. 1 plain and accelerated, Alg. 3) are
// the s = 1 case of the batch driver, and S = 0 and S = 1 must give the
// same bits. The tables below pin those bits. The µ = 1 Lasso rows and
// the SVM rows compute no block eigenvalue (a 1×1 block is its own), so
// they are still the outputs of the original standalone loops. The µ = 4
// Lasso rows were recorded when the block Lipschitz constant moved from
// power iteration to tridiagonalization + bisection, which changed the
// step size at rounding level.

const fnvOffset = 14695981039346656037

// foldBits hashes float bit patterns in order (FNV-1a over whole words).
func foldBits(h uint64, vs ...float64) uint64 {
	for _, v := range vs {
		h = (h ^ math.Float64bits(v)) * 1099511628211
	}
	return h
}

// skipUnlessAMD64 keeps the recorded bits honest: the Go compiler fuses
// x*y+z into one rounding on arm64, ppc64 and s390x, so the patterns
// recorded on amd64 only bind there.
func skipUnlessAMD64(t *testing.T) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		t.Skip("golden bit patterns were recorded on amd64")
	}
}

func TestClassicalLassoGolden(t *testing.T) {
	skipUnlessAMD64(t)
	golden := []struct {
		seed                 uint64
		acc                  bool
		mu                   int
		objective, x, traces uint64
	}{
		{1, false, 1, 0x4027c85a2a4bde8b, 0xaef781c577e93310, 0x1300b6c9feb0500c},
		{1, false, 4, 0x4027c4e1b8b12a68, 0x98e14c91ee11c09c, 0xd502e304d4a65ef1},
		{1, true, 1, 0x40285be5e1ba8525, 0xc5dde99e0e852d11, 0xf64632aa6d213094},
		{1, true, 4, 0x402810016e96e056, 0x956d9b7c228132d6, 0x962185bb37f29be7},
		{2, false, 1, 0x403d6ad5ca7ee970, 0xe35e85650b5b0071, 0x889106b0547318b2},
		{2, false, 4, 0x403cd316a9ce6d77, 0x32472aaa0614fcce, 0x76d4d88bfaf857b6},
		{2, true, 1, 0x403e5702daf8393e, 0xdda472d639fc6375, 0xf6afba8c06e9b0af},
		{2, true, 4, 0x403d00fb6571a75c, 0x14e2c84e0eae7165, 0xf97070c4cb3f6892},
		{3, false, 1, 0x402b02b470c0e323, 0xc7e5da2dce4e2007, 0x78847451d5f556d3},
		{3, false, 4, 0x4025153a8a61f4dd, 0xe972d3ba2b866338, 0x9ceb55b86ba5604f},
		{3, true, 1, 0x402debd0e1db8a6e, 0x383430b4e04a86b1, 0x32ec0ed2c531d462},
		{3, true, 4, 0x402527b6cdb85e20, 0xe255d1964b1f1b00, 0x1cdd9467770906a1},
	}
	for _, g := range golden {
		a, b, lambda := testProblem(g.seed)
		for _, s := range []int{0, 1} {
			res, err := Lasso(a, b, LassoOptions{
				Lambda: lambda, BlockSize: g.mu, Iters: 300, S: s,
				Accelerated: g.acc, Seed: g.seed + 10, TrackEvery: 60,
			})
			if err != nil {
				t.Fatal(err)
			}
			traces := uint64(fnvOffset)
			for _, p := range res.History {
				traces = foldBits(traces, p.Value)
			}
			if obj, x := math.Float64bits(res.Objective), foldBits(fnvOffset, res.X...); obj != g.objective || x != g.x || traces != g.traces {
				t.Errorf("seed=%d acc=%v mu=%d S=%d: objective %#016x x %#016x traces %#016x, recorded %#016x %#016x %#016x",
					g.seed, g.acc, g.mu, s, obj, x, traces, g.objective, g.x, g.traces)
			}
		}
	}
}

func TestClassicalSVMGolden(t *testing.T) {
	skipUnlessAMD64(t)
	golden := []struct {
		seed                  uint64
		loss                  SVMLoss
		gap, x, alpha, traces uint64
	}{
		{1, SVML1, 0x4020c1e6358daf20, 0x2bac5f684386c4e1, 0xb44c66b30a653f2b, 0xbf124eefd82cdadb},
		{1, SVML2, 0x401f48fc6bbf4290, 0xdbdddfcbc9d00bdd, 0x6c575ec8ee57bf61, 0x4abc8aa51f991486},
		{2, SVML1, 0x402122a0dc6b7338, 0x313f5e73b895fb54, 0x6832b263675ebce4, 0x998b465ce3306cce},
		{2, SVML2, 0x401986c63fb7c0b6, 0x7fd0fb4da96f214d, 0xce077b003aa0eb4b, 0x6f72d6c76c2797af},
		{3, SVML1, 0x40230cfce91f0eb0, 0x7d90e8aea39a8d89, 0xe868185a8cad81b5, 0xe3ec41dd400daed3},
		{3, SVML2, 0x4015f51bcda42578, 0xe7ec5ac84b0eeb20, 0x57a82f4ef7d9cf41, 0x3b3eb2ff2ed33173},
	}
	for _, g := range golden {
		a, b := svmProblem(g.seed)
		for _, s := range []int{0, 1} {
			res, err := SVM(a, b, SVMOptions{Lambda: 1, Loss: g.loss, Iters: 1500, S: s, Seed: g.seed + 10, TrackEvery: 300})
			if err != nil {
				t.Fatal(err)
			}
			traces := uint64(fnvOffset)
			for _, p := range res.History {
				traces = foldBits(traces, p.Primal, p.Dual, p.Gap)
			}
			gap, x, alpha := math.Float64bits(res.Gap), foldBits(fnvOffset, res.X...), foldBits(fnvOffset, res.Alpha...)
			if gap != g.gap || x != g.x || alpha != g.alpha || traces != g.traces {
				t.Errorf("seed=%d loss=%v S=%d: gap %#016x x %#016x alpha %#016x traces %#016x, recorded %#016x %#016x %#016x %#016x",
					g.seed, g.loss, s, gap, x, alpha, traces, g.gap, g.x, g.alpha, g.traces)
			}
		}
	}
}
