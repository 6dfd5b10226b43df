package core

import (
	"math"
	"testing"
)

// The tables below pin the bits of s > 1 batches, which the classical
// tables of golden_test.go cannot see: an inner step's gradient there is
// its hoisted product alone, so no correction sum, cross term or in-batch
// track is exercised. Every cell's budget of 302 or 1 000 iterations
// leaves the last batch partial at every s, and tracks every 50 or 200
// iterations fall inside a batch. A change that means to
// move these bits re-records the tables in a commit of its own.

func TestSALassoGolden(t *testing.T) {
	skipUnlessAMD64(t)
	golden := []struct {
		acc                  bool
		mu, s                int
		objective, x, traces uint64
	}{
		{false, 1, 4, 0x4027c85a2a4bde8b, 0xaef781c577e93310, 0xe0414d3f3b6b61a3},
		{false, 1, 16, 0x4027c85a2a4bde8b, 0xf3fdfd8b636c217e, 0xe184943f3972d1d3},
		{false, 1, 64, 0x4027c85a2a4bde8a, 0xb8354dff856f55ea, 0xe184933f3972d020},
		{false, 4, 4, 0x4027c4e1b8b12a69, 0x47f80c9c86d63d07, 0x5dc1aad917fdd7bb},
		{false, 4, 16, 0x4027c4e1b8b12a69, 0xd38a3727f0804b87, 0xa1a0dff46df8247d},
		{false, 4, 64, 0x4027c4e1b8b12a68, 0x5fa392bfd636a691, 0xf4f90aef62928b6c},
		{false, 8, 4, 0x4027c4e1c208562c, 0x90eb32feac18bf06, 0x492427e4bc402ecc},
		{false, 8, 16, 0x4027c4e1c208562c, 0x56ba5ba24298913e, 0x4927cde4bc437eb5},
		{false, 8, 64, 0x4027c4e1c208562c, 0xf88887d98acb59f6, 0xa7923ca08d2ec332},
		{true, 1, 4, 0x40285a6cba27f495, 0xa81f1bc3936ad2ea, 0xc49a960851f5b24c},
		{true, 1, 16, 0x40285a6cba27f494, 0x04c20fdd1004c241, 0xa1c804083e380c1e},
		{true, 1, 64, 0x40285a6cba27f493, 0x706cd767a468302a, 0xa1d005083e42c2a8},
		{true, 4, 4, 0x40280f1d4f80dfe9, 0x17da7444f58da9c2, 0x86f6f7c7e7ef442d},
		{true, 4, 16, 0x40280f1d4f80dfe8, 0xac2e1411bb5ba9a1, 0x132abc33cc96412c},
		{true, 4, 64, 0x40280f1d4f80dfe8, 0x1dc1eca070742af0, 0x2c1992b51dc80b2c},
		{true, 8, 4, 0x4027d86088b72a15, 0x110bbea6e11b9918, 0x734f04e6c103c8e4},
		{true, 8, 16, 0x4027d86088b72a15, 0xf6f626c8036eb7c2, 0x41d00cc4b4154daa},
		{true, 8, 64, 0x4027d86088b72a15, 0x80c93df7b2d36ac9, 0xc5ec3426648045fc},
	}
	a, b, lambda := testProblem(1)
	for _, g := range golden {
		res, err := Lasso(a, b, LassoOptions{
			Lambda: lambda, BlockSize: g.mu, Iters: 302, S: g.s,
			Accelerated: g.acc, Seed: 11, TrackEvery: 50,
		})
		if err != nil {
			t.Fatal(err)
		}
		traces := uint64(fnvOffset)
		for _, p := range res.History {
			traces = foldBits(traces, p.Value)
		}
		if obj, x := math.Float64bits(res.Objective), foldBits(fnvOffset, res.X...); obj != g.objective || x != g.x || traces != g.traces {
			t.Errorf("acc=%v mu=%d s=%d: objective %#016x x %#016x traces %#016x, recorded %#016x %#016x %#016x",
				g.acc, g.mu, g.s, obj, x, traces, g.objective, g.x, g.traces)
		}
	}
}

func TestSASVMGolden(t *testing.T) {
	skipUnlessAMD64(t)
	golden := []struct {
		loss                  SVMLoss
		s                     int
		tol                   float64
		iters                 int // iterations run: below 1 000 only on a Tol stop
		gap, x, alpha, traces uint64
	}{
		{SVML1, 16, 0, 1000, 0x4031becac55718f4, 0x61a397385d843361, 0xacad47e0f7b7cfc3, 0x31461250c0fd840c},
		{SVML1, 64, 0, 1000, 0x4031becac55718f4, 0x4bfbef054e3e3e59, 0xc0e32d0ebcd680d3, 0xa1a38f64670a3218},
		{SVML2, 16, 0, 1000, 0x4034126b1e1849fe, 0x9500029e4090f0ae, 0x52c45fb04ef5e1b1, 0xf96fbf6868f8e1a1},
		{SVML2, 64, 0, 1000, 0x4034126b1e1849fd, 0xfabfd84bca4faff4, 0xb9a577732fa9b476, 0x78ccfc7631d98eb6},
		{SVML1, 64, 30, 600, 0x403ac649ff2dc398, 0x556d04b6bd55c7c3, 0x90cbaa5d0f8826a8, 0x6a2753efafc30adf},
	}
	a, b := svmProblem(1)
	for _, g := range golden {
		res, err := SVM(a, b, SVMOptions{Lambda: 1, Loss: g.loss, Iters: 1000, S: g.s, Seed: 11, TrackEvery: 200, Tol: g.tol})
		if err != nil {
			t.Fatal(err)
		}
		traces := uint64(fnvOffset)
		for _, p := range res.History {
			traces = foldBits(traces, p.Primal, p.Dual, p.Gap)
		}
		gap, x, alpha := math.Float64bits(res.Gap), foldBits(fnvOffset, res.X...), foldBits(fnvOffset, res.Alpha...)
		if res.Iters != g.iters || gap != g.gap || x != g.x || alpha != g.alpha || traces != g.traces {
			t.Errorf("loss=%v s=%d tol=%v: iters %d gap %#016x x %#016x alpha %#016x traces %#016x, recorded %d %#016x %#016x %#016x %#016x",
				g.loss, g.s, g.tol, res.Iters, gap, x, alpha, traces, g.iters, g.gap, g.x, g.alpha, g.traces)
		}
	}
}
