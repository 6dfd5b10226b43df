//go:build unix

package mpi

import (
	"errors"
	"fmt"
	"syscall"
	"testing"
	"unsafe"
)

// TestTCPSendRefusesOversizedPayload: a payload above the frame limit is
// refused by the sender as a *PeerError naming both ranks — not written
// for the receiver to report as corruption (and, from 2³² words up, not
// silently wrapped into a short frame). The connection stays usable.
//
// The payload is one word over the limit of address space mapped
// PROT_NONE: it costs no memory, and a Send that read a single element
// before refusing would fault.
func TestTCPSendRefusesOversizedPayload(t *testing.T) {
	const words = maxFrameWords + 1
	mem, err := syscall.Mmap(-1, 0, 8*words, syscall.PROT_NONE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("cannot reserve %d bytes of address space: %v", 8*words, err)
	}
	defer syscall.Munmap(mem) //nolint:errcheck // test teardown
	huge := unsafe.Slice((*float64)(unsafe.Pointer(&mem[0])), words)

	_, err = RunWorld(bg, 2, Zero(), WorldOptions{TCP: &TCPOptions{}}, func(c *Comm) error {
		if c.Rank() == 1 {
			in, err := c.Recv(0, 2)
			if err != nil || len(in) != 1 || in[0] != 7 {
				return fmt.Errorf("frame after the refused send: %v, %v", in, err)
			}
			return nil
		}
		err := c.Send(1, 1, huge)
		var pe *PeerError
		if !errors.As(err, &pe) {
			return fmt.Errorf("oversized send returned %v, want a *PeerError", err)
		}
		if pe.Rank != 0 || pe.Peer != 1 || pe.Op != "send" || pe.Tag != 1 {
			return fmt.Errorf("PeerError = %+v, want rank 0 send to rank 1 tag 1", pe)
		}
		return c.Send(1, 2, []float64{7})
	})
	if err != nil {
		t.Fatal(err)
	}
}
