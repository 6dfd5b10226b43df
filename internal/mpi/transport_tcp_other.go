//go:build !unix

package mpi

// writeNow takes nothing where there is no non-blocking write to a
// socket descriptor: every frame goes through its peer's writer
// goroutine.
func writeNow(uintptr, []byte) (int, error) { return 0, nil }
