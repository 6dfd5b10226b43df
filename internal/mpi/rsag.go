package mpi

// AllreduceRSAG is a bandwidth-optimal Allreduce (Rabenseifner's
// algorithm: recursive-halving reduce-scatter followed by
// recursive-doubling allgather). Its modeled cost is
//
//	2·α·log₂P + 2·β·W·(P−1)/P
//
// versus recursive doubling's ⌈log₂P⌉·(α + β·W): twice the latency, so
// it is ahead only on bandwidth, at P ≥ 4, where its β term is
// 2(P−1)/(P·log₂P) of recursive doubling's. That matters precisely for
// the synchronization-avoiding solvers, whose batched Gram messages grow
// as s²µ² — pairing SA with a bandwidth-optimal reduction pushes the
// optimal s higher. It is exposed as an explicit choice (dist.Options) and
// benchmarked as an ablation rather than silently auto-selected, so
// experiment costs stay attributable.
//
// Like Allreduce, the result is identical on every rank (each vector
// element is combined along one fixed binary tree). For tiny messages or
// P < 4 it falls back to Allreduce, which is cheaper there.
func (c *Comm) AllreduceRSAG(op Op, data []float64) error {
	p := c.Size()
	if p < 4 || len(data) < p {
		return c.Allreduce(op, data)
	}
	// Largest power of two ≤ p; the r extra ranks fold into partners
	// during a pre-phase and receive the result in a post-phase.
	p2 := 1
	for p2*2 <= p {
		p2 *= 2
	}
	r := p - p2
	rank := c.Rank()
	tag := c.collTag(kindAllreduce)

	// Pre-phase: ranks [0, 2r) pair up (even, odd); odd ranks hand their
	// contribution to the even partner and wait for the post-phase.
	er := -1 // effective rank within the power-of-two group
	switch {
	case rank < 2*r && rank%2 == 1:
		if err := c.Send(rank-1, tag, data); err != nil {
			return err
		}
	case rank < 2*r:
		in, err := c.Recv(rank+1, tag)
		if err != nil {
			return err
		}
		c.Compute(float64(len(data)))
		op.combine(data, in)
		er = rank / 2
	default:
		er = rank - r
	}
	if er < 0 {
		// Idle until the post-phase delivers the final vector.
		out, err := c.Recv(rank-1, tag)
		if err != nil {
			return err
		}
		copy(data, out)
		return nil
	}
	toActual := func(e int) int {
		if e < r {
			return 2 * e
		}
		return e + r
	}

	// Recursive-halving reduce-scatter. Track the owned segment and the
	// halving history for the mirror allgather phase.
	lo, hi := 0, len(data)
	type seg struct{ lo, hi, dist int }
	var history []seg
	for dist := p2 / 2; dist >= 1; dist /= 2 {
		partner := toActual(er ^ dist)
		mid := lo + (hi-lo)/2
		var keepLo, keepHi, sendLo, sendHi int
		if er&dist == 0 {
			keepLo, keepHi, sendLo, sendHi = lo, mid, mid, hi
		} else {
			keepLo, keepHi, sendLo, sendHi = mid, hi, lo, mid
		}
		if err := c.Send(partner, tag, data[sendLo:sendHi]); err != nil {
			return err
		}
		in, err := c.Recv(partner, tag)
		if err != nil {
			return err
		}
		c.Compute(float64(keepHi - keepLo))
		op.combine(data[keepLo:keepHi], in)
		history = append(history, seg{lo, hi, dist})
		lo, hi = keepLo, keepHi
	}

	// Recursive-doubling allgather: undo the halving in reverse, each
	// round exchanging the owned segment for the partner's sibling
	// segment so both end up with the parent segment.
	for i := len(history) - 1; i >= 0; i-- {
		parent := history[i]
		partner := toActual(er ^ parent.dist)
		if err := c.Send(partner, tag, data[lo:hi]); err != nil {
			return err
		}
		in, err := c.Recv(partner, tag)
		if err != nil {
			return err
		}
		// The partner owns parent minus my segment.
		if lo == parent.lo {
			copy(data[hi:parent.hi], in)
		} else {
			copy(data[parent.lo:lo], in)
		}
		lo, hi = parent.lo, parent.hi
	}

	// Post-phase: deliver to the folded odd ranks.
	if rank < 2*r {
		return c.Send(rank+1, tag, data)
	}
	return nil
}
