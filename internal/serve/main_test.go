package serve_test

import (
	"os"
	"testing"

	"saco/internal/testmatrix"
)

// TestMain fails the package if a test leaves a goroutine behind: a
// server's dispatcher, a registry watcher, a cluster sweep or an HTTP
// server that outlives its test.
func TestMain(m *testing.M) { os.Exit(testmatrix.RunLeakChecked(m)) }
