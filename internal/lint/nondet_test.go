package lint_test

import (
	"testing"

	"saco/internal/lint"
	"saco/internal/lint/linttest"
)

// math/rand, time.Now, and GOMAXPROCS flagged in a hot-path package;
// runtime.NumCPU and the nolint'd width resolution allowed.
func TestNonDet(t *testing.T) {
	linttest.Run(t, lint.NonDet, "testdata/nondet/src", "saco/internal/core")
}

// The solver CLIs are deterministic packages but not hot paths:
// wall-clock reads there are fine, so the fixture is clean under a cmd
// import path.
func TestNonDetScope(t *testing.T) {
	linttest.RunClean(t, lint.NonDet, "testdata/nondet/src", "saco/cmd/savet")
}
