package lint_test

import (
	"testing"

	"saco/internal/lint"
	"saco/internal/lint/linttest"
)

// Map ranges feeding float accumulation or serialization are flagged;
// the collect-then-sort escape and slice iteration are allowed.
func TestMapIter(t *testing.T) {
	linttest.Run(t, lint.MapIter, "testdata/mapiter/src", "saco/internal/stream")
}

// Outside the deterministic packages map iteration order is nobody's
// business.
func TestMapIterScope(t *testing.T) {
	linttest.RunClean(t, lint.MapIter, "testdata/mapiter/src", "saco/cmd/savet")
}
