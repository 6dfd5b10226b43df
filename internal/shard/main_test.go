package shard_test

import (
	"os"
	"testing"

	"saco/internal/testmatrix"
)

// TestMain fails the package if a test leaves a goroutine behind: a
// replica's HTTP server or a routed request that outlives its test.
func TestMain(m *testing.M) { os.Exit(testmatrix.RunLeakChecked(m)) }
