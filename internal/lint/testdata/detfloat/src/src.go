// Fixture for the detfloat analyzer, type-checked as a deterministic
// package (saco/internal/core). Flagged and allowed cases side by side.
package src

import "math"

// The PR 7 false-sharing/reassociation shape: a lane-split reduction
// with four independent accumulators folded after the loop.
func laneSplitDot(x, y []float64) float64 {
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(x); i += 4 {
		s0 += x[i] * y[i]
		s1 += x[i+1] * y[i+1]
		s2 += x[i+2] * y[i+2]
		s3 += x[i+3] * y[i+3]
	}
	s := (s0 + s1) + (s2 + s3) // want "reassociated float reduction"
	for ; i < len(x); i++ {
		s += x[i] * y[i]
	}
	return s
}

// Two accumulators folded into the return: the same hazard at width 2.
func stripedSum(x []float64) float64 {
	var even, odd float64
	for i, v := range x {
		if i%2 == 0 {
			even += v
		} else {
			odd += v
		}
	}
	return even + odd // want "reassociated float reduction"
}

// Folding into an existing accumulator trips it too.
func laneSplitNorm(acc float64, x []float64) float64 {
	var s0, s1 float64
	for i := 0; i+2 <= len(x); i += 2 {
		s0 += x[i] * x[i]
		s1 += x[i+1] * x[i+1]
	}
	acc += s0 + s1 // want "reassociated float reduction"
	return acc
}

// Fused multiply-add contracts the intermediate rounding: never in a
// deterministic kernel.
func fused(a, b, c float64) float64 {
	return math.FMA(a, b, c) // want "math.FMA"
}

// Single-accumulator unrolled fold: additions stay in scalar order,
// bitwise-identical, allowed.
func unrolledDot(x, y []float64) float64 {
	var s float64
	i := 0
	for ; i+4 <= len(x); i += 4 {
		s += x[i] * y[i]
		s += x[i+1] * y[i+1]
		s += x[i+2] * y[i+2]
		s += x[i+3] * y[i+3]
	}
	for ; i < len(x); i++ {
		s += x[i] * y[i]
	}
	return s
}

// Two accumulators that are never combined track two different
// quantities (objective and gap): allowed.
func objAndGap(m []float64) (float64, float64) {
	var obj, gap float64
	for _, v := range m {
		obj += v * v
		gap += v
	}
	return obj, gap
}

// A sanctioned deviation carries its justification in a suppression.
func sanctioned(x []float64) float64 {
	var a, b float64
	for i, v := range x {
		if i%2 == 0 {
			a += v
		} else {
			b += v
		}
	}
	return a + b //saco:nolint detfloat fixture-sanctioned reassociation exercising the suppression path
}
