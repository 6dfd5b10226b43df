package mpi_test

import (
	"os"
	"testing"

	"saco/internal/testmatrix"
)

// TestMain fails the package if a test leaves a goroutine behind: a TCP
// writer or a rank that outlives its world.
func TestMain(m *testing.M) { os.Exit(testmatrix.RunLeakChecked(m)) }
