package mpi_test

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"testing"
	"time"

	"saco/internal/dist"
	"saco/internal/mpi"
	"saco/internal/testmatrix"
)

// reduceBcastOracle is the Allreduce the runtime shipped before recursive
// doubling: a binomial reduce to rank 0, then a binomial broadcast of
// rank 0's buffer. Its reduce tree fixes the combine order (block
// [v, v+d) ⊕ block [v+d, v+2d), lower block on the left) that Allreduce
// must reproduce bit for bit on every rank.
func reduceBcastOracle(c *mpi.Comm, op mpi.Op, data []float64) error {
	const reduceTag, bcastTag = 1, 2
	p, r := c.Size(), c.Rank()
	if p == 1 {
		return nil
	}
	sent := false
	for d := 1; d < p && !sent; d <<= 1 {
		if r&d != 0 {
			if err := c.Send(r-d, reduceTag, data); err != nil {
				return err
			}
			sent = true
		} else if r+d < p {
			in, err := c.Recv(r+d, reduceTag)
			if err != nil {
				return err
			}
			op.Combine(data, in)
		}
	}
	top := 1
	for top < p {
		top <<= 1
	}
	recvd := r == 0
	for d := top >> 1; d >= 1; d >>= 1 {
		if !recvd && r&d != 0 {
			if r&(d-1) == 0 {
				in, err := c.Recv(r-d, bcastTag)
				if err != nil {
					return err
				}
				copy(data, in)
				recvd = true
			}
			continue
		}
		if recvd && r&(d-1) == 0 && r+d < p {
			if err := c.Send(r+d, bcastTag, data); err != nil {
				return err
			}
		}
	}
	return nil
}

// specialValues are the inputs whose combine results depend on operand
// order or rounding: signed zeros (Max keeps its left operand on a tie),
// NaNs with distinct payloads and signs (x86 propagates the first
// operand's payload), infinities, subnormals and magnitudes far apart.
var specialValues = []float64{
	0, math.Copysign(0, -1),
	math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0x7ff80000000002e1),
	math.Float64frombits(0xfff8000000000097), math.Float64frombits(0x7ff0000000000003),
	math.Inf(1), math.Inf(-1),
	math.SmallestNonzeroFloat64, -3 * math.SmallestNonzeroFloat64, 0x1p-1030,
	1e300, -1e300, 1, -1, 0.1, 1e-17, math.Pi,
}

// oracleInputs returns p ranks' vectors of n words drawn from
// specialValues and mixed-magnitude values by a fixed LCG.
func oracleInputs(p, n int, seed uint64) [][]float64 {
	in := make([][]float64, p)
	for r := range in {
		in[r] = make([]float64, n)
		for i := range in[r] {
			seed = seed*6364136223846793005 + 1442695040888963407
			if k := seed >> 58; k < uint64(len(specialValues)) {
				in[r][i] = specialValues[k]
			} else {
				in[r][i] = math.Ldexp(float64(int32(seed>>27))/(1<<31), int(seed>>20%64)-32)
			}
		}
	}
	return in
}

// oracleDeadline bounds one oracle world (and a TCP rank's wait for a
// frame), so a DAG in which every rank waits on another fails instead of
// hanging.
const oracleDeadline = 20 * time.Second

// checkAllreduceOracle runs Allreduce and the oracle on inputs (one
// vector per rank) in one world and fails on any rank whose Allreduce
// bits differ from the oracle's.
func checkAllreduceOracle(tb testing.TB, opt mpi.WorldOptions, op mpi.Op, inputs [][]float64) {
	tb.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), oracleDeadline)
	defer cancel()
	_, err := mpi.RunWorld(ctx, len(inputs), mpi.CrayXC30(), opt, func(c *mpi.Comm) error {
		got := append([]float64(nil), inputs[c.Rank()]...)
		want := append([]float64(nil), inputs[c.Rank()]...)
		if err := c.Allreduce(op, got); err != nil {
			return err
		}
		if err := reduceBcastOracle(c, op, want); err != nil {
			return err
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				return fmt.Errorf("rank %d word %d: %#016x, oracle %#016x (%v vs %v)", c.Rank(), i,
					math.Float64bits(got[i]), math.Float64bits(want[i]), got[i], want[i])
			}
		}
		return nil
	})
	if err != nil {
		tb.Fatalf("p=%d op=%d: %v", len(inputs), op, err)
	}
}

// worldOptions maps a backend-matrix transport onto the mpi world that
// runs it.
func worldOptions(kind dist.Transport) mpi.WorldOptions {
	if kind == dist.TransportTCP {
		return mpi.WorldOptions{TCP: &mpi.TCPOptions{RecvTimeout: oracleDeadline}}
	}
	return mpi.WorldOptions{}
}

// TestAllreduceMatchesBinomialOracle: recursive doubling leaves every
// rank with the bits the binomial reduce-then-broadcast leaves, at every
// P up to 17 — every shape of short upper half — for both operators, on
// inputs where operand order shows. Over TCP the small counts suffice:
// the transport carries bits, the DAG is the simulated world's.
func TestAllreduceMatchesBinomialOracle(t *testing.T) {
	for _, kind := range testmatrix.TransportKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			maxP := 17
			if kind != dist.TransportSim {
				maxP = 4
			}
			for p := 1; p <= maxP; p++ {
				for _, op := range []mpi.Op{mpi.Sum, mpi.Max} {
					checkAllreduceOracle(t, worldOptions(kind), op, oracleInputs(p, 64, uint64(p)))
				}
			}
		})
	}
}

// FuzzAllreduce decodes a rank count P ≤ 17, the operator and the ranks'
// values from the fuzz bytes and checks Allreduce bitwise against the
// binomial oracle on the simulated world.
func FuzzAllreduce(f *testing.F) {
	word := func(v float64) []byte { return binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)) }
	var specials []byte
	for _, v := range specialValues {
		specials = append(specials, word(v)...)
	}
	f.Add([]byte{1, 0}, specials)
	f.Add([]byte{2, 1}, specials)
	f.Add([]byte{4, 0}, append(word(math.Float64frombits(0x7ff80000000002e1)), word(math.Float64frombits(0x7ff8000000000097))...))
	f.Add([]byte{5, 1}, append(word(0), word(math.Copysign(0, -1))...))
	f.Add([]byte{16, 0}, specials)
	f.Fuzz(func(t *testing.T, head, vals []byte) {
		if len(head) < 2 {
			return
		}
		p := 1 + int(head[0])%17
		op := mpi.Op(head[1] % 2)
		words := len(vals) / 8
		n := max(1, min(words/p, 64))
		inputs := make([][]float64, p)
		for r := range inputs {
			inputs[r] = make([]float64, n)
			for i := range inputs[r] {
				if k := r*n + i; k < words {
					inputs[r][i] = math.Float64frombits(binary.LittleEndian.Uint64(vals[8*k:]))
				}
			}
		}
		checkAllreduceOracle(t, mpi.WorldOptions{}, op, inputs)
	})
}
