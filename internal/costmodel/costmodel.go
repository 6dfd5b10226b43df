// Package costmodel implements the closed-form algorithm costs of Table I
// of the paper: flops (F), memory (M), latency (L) and message size (W)
// along the critical path for classical and synchronization-avoiding
// block coordinate descent. Combined with a machine model (α, β, γ) it
// predicts running times and the optimal recurrence-unrolling
// parameter s.
package costmodel

import (
	"math"

	"saco/internal/mpi"
)

// Problem describes one solver configuration in the model's terms.
type Problem struct {
	M       int     // data points (rows)
	N       int     // features (columns)
	Density float64 // f: nnz / (m·n)
	Mu      int     // block size µ
	H       int     // iterations
	S       int     // recurrence unrolling parameter (1 = classical)
	P       int     // processors
}

// logP returns ⌈log₂P⌉, the round count of recursive-doubling Allreduce.
func (pb Problem) logP() float64 {
	if pb.P <= 1 {
		return 0
	}
	return math.Ceil(math.Log2(float64(pb.P)))
}

// outerIters returns the number of communication rounds, H/s (Table I's
// L = O(H/s · logP) row).
func (pb Problem) outerIters() float64 {
	return math.Ceil(float64(pb.H) / float64(pb.S))
}

// gramWords returns the words of one batched Gram + residual-product
// exchange: the upper triangle of the sµ×sµ Gram matrix (paper §III
// fn. 3) plus the 2sµ hoisted products Yᵀ[ỹ z̃] (Alg. 2 lines 11–12).
func (pb Problem) gramWords() float64 {
	k := float64(pb.S * pb.Mu)
	return k*(k+1)/2 + 2*k
}

// Flops returns the model flop count per processor over the whole run:
// F = O(H·s·µ²·f·m/P + H·µ³) (Table I, with the classical case s=1).
// The first term is the Gram and product assembly over the owned row
// block, the second the µ×µ eigenvalue solve and subproblem updates that
// every processor performs redundantly.
func (pb Problem) Flops() float64 {
	fmP := pb.Density * float64(pb.M) / float64(pb.P)
	mu := float64(pb.Mu)
	perIter := 2*float64(pb.S)*mu*mu*fmP + 2*mu*fmP
	redundant := mu * mu * mu
	return float64(pb.H) * (perIter + redundant)
}

// MemoryWords returns the model per-processor storage:
// M = O(f·m·n/P + m/P + s²µ² + n) words (Table I).
func (pb Problem) MemoryWords() float64 {
	k := float64(pb.S * pb.Mu)
	return pb.Density*float64(pb.M)*float64(pb.N)/float64(pb.P) +
		float64(pb.M)/float64(pb.P) + k*k + 3*float64(pb.N)
}

// LatencyMessages returns the number of messages on the critical path:
// L = H/s · ⌈log₂P⌉, one exchange per recursive-doubling round of each
// Allreduce. At power-of-two P that is the message DAG exactly. At other
// P the short upper half of a round (m ranks facing d lower ones) sends
// each of its blocks to ⌈d/m⌉ lower ranks one after another, so the DAG's
// critical path carries up to ⌈d/m⌉ − 1 more messages in that round: one
// more per Allreduce at P = 768 = 3·256 (m = 256, d = 512), and 2^k − 1
// more at P = 2^k + 1. The closed form leaves that excess out.
func (pb Problem) LatencyMessages() float64 {
	return pb.outerIters() * pb.logP()
}

// BandwidthWords returns the words moved on the critical path:
// W = O(H·s·µ² · logP) — each of the H/s reductions moves the s²µ² Gram
// words through ⌈log₂P⌉ rounds (with the same fan-out excess as
// LatencyMessages at non-power-of-two P).
func (pb Problem) BandwidthWords() float64 {
	return pb.outerIters() * pb.gramWords() * pb.logP()
}

// Time returns the modeled running time on machine mc: F·γ + L·α + W·β.
// Gram assembly runs at the blocked (BLAS-3) rate when s·µ > 1 and the
// working set fits in cache; everything else streams. This reproduces the
// computation-speedup column of Fig. 4e–h, including its decline once the
// s²µ² working set spills the cache.
func (pb Problem) Time(mc mpi.Machine) float64 {
	comp := pb.CompTime(mc)
	comm := pb.CommTime(mc)
	return comp + comm
}

// CompTime returns the modeled computation component of Time: Gram
// assembly and the streamed products over the owned row block, plus the
// µ³ eigensolve every rank performs redundantly.
func (pb Problem) CompTime(mc mpi.Machine) float64 {
	fmP := pb.Density * float64(pb.M) / float64(pb.P)
	mu := float64(pb.Mu)
	k := float64(pb.S) * mu
	gramFlops := float64(pb.H) * 2 * float64(pb.S) * mu * mu * fmP
	streamFlops := float64(pb.H) * (2*mu*fmP + mu*mu*mu)
	gamma := mc.GammaStream
	if pb.S*pb.Mu > 1 {
		ws := int(k*k) + int(2*k*fmP)
		if mc.CacheWords == 0 || ws <= mc.CacheWords {
			gamma = mc.GammaBlocked
		}
	}
	return gramFlops*gamma + streamFlops*mc.GammaStream
}

// CommTime returns the modeled communication component of Time.
func (pb Problem) CommTime(mc mpi.Machine) float64 {
	return pb.LatencyMessages()*mc.Alpha + pb.BandwidthWords()*mc.Beta
}

// WithS returns a copy of the problem with a different unrolling factor.
func (pb Problem) WithS(s int) Problem {
	pb.S = s
	return pb
}

// WithP returns a copy of the problem with a different processor count.
func (pb Problem) WithP(p int) Problem {
	pb.P = p
	return pb
}

// OptimalS returns the s in [1, sMax] minimizing modeled time. The
// analytic optimum balances the latency saving H/s·α·logP against the
// bandwidth growth H·s·µ²·β·logP, giving s* ≈ √(α/(µ²β)); this function
// searches the discrete range, which also accounts for the cache knee.
func OptimalS(pb Problem, mc mpi.Machine, sMax int) int {
	best, bestT := 1, math.Inf(1)
	for s := 1; s <= sMax; s++ {
		if t := pb.WithS(s).Time(mc); t < bestT {
			best, bestT = s, t
		}
	}
	return best
}
