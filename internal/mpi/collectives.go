package mpi

import "fmt"

// Op selects the combining operator of a reduction.
type Op int

// Reduction operators.
const (
	Sum Op = iota
	Max
)

// combine sets out[i] = a[i] ⊕ b[i]. out may alias a or b: each word is
// read before it is written.
func (o Op) combine(out, a, b []float64) {
	a, b = a[:len(out)], b[:len(out)]
	switch o {
	case Sum:
		for i := range out {
			out[i] = a[i] + b[i]
		}
	case Max:
		for i := range out {
			v := a[i]
			if b[i] > v {
				v = b[i]
			}
			out[i] = v
		}
	default:
		panic(fmt.Sprintf("mpi: unknown op %d", o))
	}
}

// Collective tags combine a per-rank sequence number with the collective
// kind (tag = -(8·seq + kind)) so that a mismatched program — one rank in
// an Allreduce while another is in a Barrier — fails with a tagged error
// instead of exchanging wrong data. SPMD programs execute the same
// collective sequence on every rank, keeping the counters aligned.
// Negative tags keep the collective namespace disjoint from user
// point-to-point tags (>= 0).
const (
	kindAllreduce = iota
	kindBarrier
)

func (c *Comm) collTag(kind int) int {
	c.seq++
	return -(c.seq*8 + kind)
}

// Allreduce combines data across ranks with op and leaves the identical
// result on every rank — the property the solvers rely on to keep
// replicated vectors consistent (Fig. 1 step 4: "Sum reduce dot-products
// and replicate on all processors").
//
// Recursive doubling: ⌈log₂P⌉ rounds, each one exchange of len(data)
// words, so the latency per call is ⌈log₂P⌉·α — the L term of Table I.
// In round d = 1, 2, 4, … rank r's group is [base, base+2d) ∩ [0, P)
// with base = r &^ (2d−1): its lower half holds the combine of
// [base, base+d), its upper half, m = min(base+2d, P) − (base+d) ranks,
// that of [base+d, base+2d). Lower rank l receives from upper rank
// base+d + (l−base) mod m and upper rank u from u−d; both then make the
// same call, combine(lower, upper). At power-of-two P that is the
// butterfly; at other P a short upper half fans out to the lower ranks
// without an XOR partner (the excess messages costmodel documents). Every
// combine is the binomial reduce-to-rank-0 tree's ([v, v+d) ⊕ [v+d, v+2d),
// lower block on the left), so each rank ends with the bits that tree
// leaves on its root, NaN payloads and signed zeros included. A failed
// peer aborts with a *PeerError; data must then be discarded.
func (c *Comm) Allreduce(op Op, data []float64) error {
	p, r := c.Size(), c.Rank()
	if p == 1 {
		return nil
	}
	tag := c.collTag(kindAllreduce)
	for d := 1; d < p; d <<= 1 {
		base := r &^ (2*d - 1)
		m := min(base+2*d, p) - (base + d)
		if m <= 0 {
			continue // no upper half: the tree has no combine here either
		}
		// Every send of a round precedes its receive: the transport owns
		// the payload once Send returns, so no partner waits to send.
		lower := r < base+d
		src := r - d
		if lower {
			src = base + d + (r-base)%m
			if r+d < p {
				if err := c.Send(r+d, tag, data); err != nil {
					return err
				}
			}
		} else {
			for l := r - d; l < base+d; l += m {
				if err := c.Send(l, tag, data); err != nil {
					return err
				}
			}
		}
		in, err := c.Recv(src, tag)
		if err != nil {
			return err
		}
		// Both partners make the same call, combine(lower, upper): a
		// flipped loop may round a NaN payload or a signed zero the other
		// way. Either rank combines into its own buffer.
		lo, hi := data, in
		if !lower {
			lo, hi = in, data
		}
		c.Compute(float64(len(data))) // combine cost: one op per word
		op.combine(data, lo, hi)
	}
	return nil
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
