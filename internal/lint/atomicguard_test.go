package lint_test

import (
	"testing"

	"saco/internal/lint"
	"saco/internal/lint/linttest"
)

// The metrics histogram counters: the audited accessors in histogram.go
// touch them freely (the cells are atomics themselves); any other file
// is out of contract even for structural peeks.
func TestAtomicGuardMetricsShards(t *testing.T) {
	linttest.Run(t, lint.AtomicGuard, "testdata/atomicguard/metrics", "saco/internal/metrics")
}

// The shard ring pointer: Current/Set in table.go are the seam; even
// an atomic load elsewhere is flagged.
func TestAtomicGuardShardTable(t *testing.T) {
	linttest.Run(t, lint.AtomicGuard, "testdata/atomicguard/shardring", "saco/internal/shard")
}

// The sparse row-block memo pointer: rowmemo.go loads and installs it
// atomically; any other file, even in the same package, is flagged.
func TestAtomicGuardRowMemo(t *testing.T) {
	linttest.Run(t, lint.AtomicGuard, "testdata/atomicguard/rowmemo", "saco/internal/sparse")
}

// The read-only sparse arrays: element stores outside internal/sparse
// are flagged; inside it the package builds its own matrices.
func TestAtomicGuardReadOnly(t *testing.T) {
	linttest.Run(t, lint.AtomicGuard, "testdata/atomicguard/readonly", "saco/internal/core")
	linttest.RunClean(t, lint.AtomicGuard, "testdata/atomicguard/readonly", "saco/internal/sparse")
}

// The registry keys on the real package paths: the same shapes in an
// unrelated package define their own unguarded types and are clean.
func TestAtomicGuardScope(t *testing.T) {
	linttest.RunClean(t, lint.AtomicGuard, "testdata/atomicguard/metrics", "saco/internal/core")
	linttest.RunClean(t, lint.AtomicGuard, "testdata/atomicguard/shardring", "saco/internal/core")
	linttest.RunClean(t, lint.AtomicGuard, "testdata/atomicguard/rowmemo", "saco/internal/core")
}
