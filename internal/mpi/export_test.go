package mpi

// Combine exposes the combine every reduction makes to the external
// oracle tests: the oracle must make the very call Allreduce makes, since
// a loop of its own could propagate a NaN payload differently.
func (o Op) Combine(dst, src []float64) { o.combine(dst, dst, src) }
