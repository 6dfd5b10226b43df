package mpi

import "fmt"

// Op selects the combining operator of a reduction.
type Op int

// Reduction operators.
const (
	Sum Op = iota
	Max
)

func (o Op) combine(dst, src []float64) {
	switch o {
	case Sum:
		for i, v := range src {
			dst[i] += v
		}
	case Max:
		for i, v := range src {
			if v > dst[i] {
				dst[i] = v
			}
		}
	default:
		panic(fmt.Sprintf("mpi: unknown op %d", o))
	}
}

// Collective tags combine a per-rank sequence number with the collective
// kind (tag = -(8·seq + kind)) so that a mismatched program — one rank in
// a Bcast while another is in a Reduce — fails with a tagged error
// instead of exchanging wrong data. SPMD programs execute the same
// collective sequence on every rank, keeping the counters aligned.
// Negative tags keep the collective namespace disjoint from user
// point-to-point tags (>= 0).
const (
	kindReduce = iota
	kindBcast
	kindBarrier
)

func (c *Comm) collTag(kind int) int {
	c.seq++
	return -(c.seq*8 + kind)
}

// Reduce combines data from all ranks with op, leaving the result in data
// on root. Non-root ranks' buffers hold partial combines afterwards and
// must be treated as scratch. Binomial tree: ⌈log₂P⌉ rounds, each moving
// len(data) words, so the latency per call is O(log P) — the L term of
// Table I. A failed peer aborts with a *PeerError; the partially combined
// buffer must then be discarded.
func (c *Comm) Reduce(root int, op Op, data []float64) error {
	p, r := c.Size(), c.Rank()
	if p == 1 {
		return nil
	}
	tag := c.collTag(kindReduce)
	// Rotate so the algorithm always reduces to virtual rank 0.
	vr := (r - root + p) % p
	for dist := 1; dist < p; dist <<= 1 {
		if vr&dist != 0 {
			dst := ((vr - dist) + root) % p
			return c.Send(dst, tag, data)
		}
		if vr+dist < p {
			src := ((vr + dist) + root) % p
			in, err := c.Recv(src, tag)
			if err != nil {
				return err
			}
			c.Compute(float64(len(data))) // combine cost: one op per word
			op.combine(data, in)
		}
	}
	return nil
}

// Bcast sends root's data to all ranks, in place. Binomial tree, ⌈log₂P⌉
// rounds.
func (c *Comm) Bcast(root int, data []float64) error {
	p, r := c.Size(), c.Rank()
	if p == 1 {
		return nil
	}
	tag := c.collTag(kindBcast)
	vr := (r - root + p) % p
	// Find the top of the power-of-two range covering p.
	top := 1
	for top < p {
		top <<= 1
	}
	// Receive once from the parent, then forward down the tree.
	recvd := vr == 0
	for dist := top >> 1; dist >= 1; dist >>= 1 {
		if !recvd && vr&dist != 0 {
			if vr&(dist-1) == 0 { // it is our turn this round
				src := ((vr - dist) + root) % p
				in, err := c.Recv(src, tag)
				if err != nil {
					return err
				}
				copy(data, in)
				recvd = true
			}
			continue
		}
		if recvd && vr&(dist-1) == 0 && vr+dist < p {
			dst := ((vr + dist) + root) % p
			if err := c.Send(dst, tag, data); err != nil {
				return err
			}
		}
	}
	return nil
}

// Allreduce combines data across ranks with op and leaves the identical
// result on every rank. It is implemented as Reduce to rank 0 followed by
// Bcast, which guarantees bitwise-identical results on all ranks — the
// property the solvers rely on to keep replicated vectors consistent
// (Fig. 1 step 4: "Sum reduce dot-products and replicate on all
// processors").
func (c *Comm) Allreduce(op Op, data []float64) error {
	if c.Size() == 1 {
		return nil
	}
	// Reduce leaves partial combines in non-root buffers, but the Bcast
	// overwrites them with the root's result, so data can be reduced in
	// place.
	if err := c.Reduce(0, op, data); err != nil {
		return err
	}
	return c.Bcast(0, data)
}

// AllreduceScalar is Allreduce for a single value, returning the result.
func (c *Comm) AllreduceScalar(op Op, v float64) (float64, error) {
	buf := c.scratch1()
	buf[0] = v
	if err := c.Allreduce(op, buf); err != nil {
		return 0, err
	}
	return buf[0], nil
}

// Barrier blocks until every rank has entered it. Dissemination algorithm:
// ⌈log₂P⌉ rounds of zero-word messages, so a barrier costs about α·log₂P —
// this is exactly the per-iteration synchronization cost the SA methods
// amortize.
func (c *Comm) Barrier() error {
	p, r := c.Size(), c.Rank()
	if p == 1 {
		return nil
	}
	tag := c.collTag(kindBarrier)
	for dist := 1; dist < p; dist <<= 1 {
		dst := (r + dist) % p
		src := (r - dist + p) % p
		if err := c.Send(dst, tag, nil); err != nil {
			return err
		}
		if _, err := c.Recv(src, tag); err != nil {
			return err
		}
	}
	return nil
}

// scratch1 returns the reusable single-element buffer for scalar
// reductions, avoiding a heap allocation per call in tight solver loops.
func (c *Comm) scratch1() []float64 {
	if c.one == nil {
		c.one = make([]float64, 1)
	}
	return c.one
}
