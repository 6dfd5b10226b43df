//go:build unix

package mpi

import "syscall"

// writeNow writes as much of b to the socket fd as it takes without
// waiting for room. An interrupted write took nothing; the writer
// goroutine sends what is left.
func writeNow(fd uintptr, b []byte) (int, error) {
	n, err := syscall.Write(int(fd), b)
	if err == syscall.EAGAIN || err == syscall.EINTR {
		err = nil
	}
	return max(n, 0), err
}
