package lint_test

import (
	"testing"

	"saco/internal/lint"
	"saco/internal/lint/linttest"
)

// The main fixture: lane-split reductions and math.FMA flagged in a
// deterministic package, single-accumulator folds and nolint'd sites
// allowed.
func TestDetFloat(t *testing.T) {
	linttest.Run(t, lint.DetFloat, "testdata/detfloat/src", "saco/internal/core")
}

// cmd/savet is outside the deterministic set, so the same fixture must
// produce nothing there.
func TestDetFloatScope(t *testing.T) {
	linttest.RunClean(t, lint.DetFloat, "testdata/detfloat/src", "saco/cmd/savet")
}

// No package or file name is exempt: a lane-split reduction is flagged
// under saco/internal/simd too.
func TestDetFloatNoSimdExemption(t *testing.T) {
	linttest.Run(t, lint.DetFloat, "testdata/detfloat/reassoc", "saco/internal/simd")
}
