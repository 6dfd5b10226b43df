package dist_test

import (
	"os"
	"testing"

	"saco/internal/testmatrix"
)

// TestMain fails the package if a test leaves a goroutine behind: a
// rank, a TCP writer, a kernel helper or a restart that outlives its
// solve.
func TestMain(m *testing.M) { os.Exit(testmatrix.RunLeakChecked(m)) }
