package dist_test

import (
	"os"
	"testing"

	"saco/internal/testmatrix"
)

// TestMain fails the package if a test leaves a goroutine behind (the
// persistent kernel worker pool excepted): a rank, a TCP writer or a
// restart that outlives its solve.
func TestMain(m *testing.M) { os.Exit(testmatrix.RunLeakChecked(m)) }
