// A lane-split reduction, type-checked as saco/internal/simd: detfloat
// exempts no package and no file name, so the kernel package's own
// reductions are held to the single-accumulator fold like everyone's.
package src

func reassocDot(x, y []float64) float64 {
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
