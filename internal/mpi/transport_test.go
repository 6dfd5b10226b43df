package mpi

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"testing"
	"time"
)

// TestRecvFromFinishedPeerFailsFast is the regression test for the
// silent-deadlock failure mode: a Recv from a rank that already finished
// used to block the simulated world forever. It must now fail fast with
// a *PeerError naming both ranks.
func TestRecvFromFinishedPeerFailsFast(t *testing.T) {
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			done := make(chan error, 1)
			go func() {
				_, err := RunWorld(bg, 2, Zero(), tr.opt, func(c *Comm) error {
					if c.Rank() == 0 {
						return nil // finish without ever sending
					}
					_, err := c.Recv(0, 5)
					if err == nil {
						return errors.New("recv from finished peer succeeded")
					}
					return err
				})
				done <- err
			}()
			select {
			case err := <-done:
				if !errors.Is(err, ErrPeerGone) {
					t.Fatalf("err = %v, want ErrPeerGone", err)
				}
				var pe *PeerError
				if !errors.As(err, &pe) {
					t.Fatalf("err = %T, want *PeerError", err)
				}
				if pe.Rank != 1 || pe.Peer != 0 || pe.Op != "recv" || pe.Tag != 5 {
					t.Fatalf("PeerError = %+v, want rank 1 recv from rank 0 tag 5", pe)
				}
			case <-time.After(30 * time.Second):
				t.Fatal("world deadlocked on a finished peer")
			}
		})
	}
}

// TestFinishedPeerDrainsInFlightMessages: a peer's sends happen before
// its close, so a message already in flight must still be delivered even
// if the sender has since finished — only then does the peer count as
// gone. Without this guarantee a fast sender racing a slow receiver
// would drop tail messages.
func TestFinishedPeerDrainsInFlight(t *testing.T) {
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			_, err := RunWorld(bg, 2, Zero(), tr.opt, func(c *Comm) error {
				if c.Rank() == 0 {
					return c.Send(1, 3, []float64{7}) // send and finish immediately
				}
				time.Sleep(50 * time.Millisecond) // let rank 0 finish first
				in, err := c.Recv(0, 3)
				if err != nil {
					return err
				}
				if in[0] != 7 {
					return fmt.Errorf("got %v", in)
				}
				_, err = c.Recv(0, 4) // nothing else is coming
				if !errors.Is(err, ErrPeerGone) {
					return fmt.Errorf("second recv: err = %v, want ErrPeerGone", err)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestTornConnectionCleanError injects a mid-collective fault: one TCP
// rank slams its endpoint shut while its peers are blocked inside an
// allreduce. The survivors must surface a clean *PeerError — not hang,
// not panic — and the driver must prefer the root cause.
func TestTornConnectionCleanError(t *testing.T) {
	sabotage := errors.New("sabotaged")
	done := make(chan error, 1)
	go func() {
		_, err := RunWorld(bg, 4, Zero(), WorldOptions{TCP: &TCPOptions{}}, func(c *Comm) error {
			if err := c.Barrier(); err != nil { // everyone is up
				return err
			}
			if c.Rank() == 2 {
				// Tear the mesh down without the courtesy of finishing
				// the program: peers mid-recv see the connection die.
				c.t.Close()
				return sabotage
			}
			err := c.Allreduce(Sum, make([]float64, 1024))
			if err == nil {
				return errors.New("allreduce survived a torn peer")
			}
			var pe *PeerError
			if !errors.As(err, &pe) {
				return fmt.Errorf("err = %T (%v), want *PeerError", err, err)
			}
			return err
		})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, sabotage) {
			t.Fatalf("err = %v, want the sabotage root cause", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("world hung on a torn connection")
	}
}

// TestRecvDeadline: a silent (but connected) peer must trip the receive
// deadline rather than stall the rank forever.
func TestRecvDeadline(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	opt := &TCPOptions{RecvTimeout: 100 * time.Millisecond}
	errs := make(chan error, 2)
	go func() {
		t0, err := bootTCPRoot(bg, ln, 2, opt)
		if err != nil {
			errs <- err
			return
		}
		defer t0.Close()
		_, err = t0.Recv(1) // rank 1 stays silent
		errs <- err
	}()
	t1, err := DialTCP(bg, 1, 2, ln.Addr().String(), opt)
	if err != nil {
		t.Fatal(err)
	}
	defer t1.Close()
	select {
	case err := <-errs:
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("err = %v, want deadline exceeded", err)
		}
		var pe *PeerError
		if !errors.As(err, &pe) || pe.Rank != 0 || pe.Peer != 1 {
			t.Fatalf("err = %v, want *PeerError rank 0 from rank 1", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("recv deadline never fired")
	}
}

// TestBootstrapRejectsMismatchedWorldSize: a peer joining with the wrong
// world size is a misconfigured cluster; the rendezvous must refuse it.
func TestBootstrapRejectsMismatchedWorldSize(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	opt := &TCPOptions{RendezvousTimeout: 5 * time.Second}
	rootErr := make(chan error, 1)
	go func() {
		_, err := bootTCPRoot(bg, ln, 3, opt)
		rootErr <- err
	}()
	if _, err := DialTCP(bg, 1, 2, addr, opt); err == nil {
		// The peer itself may or may not observe the refusal (its hello
		// was sent); the root must reject either way.
		t.Log("peer dial unexpectedly succeeded; checking root")
	}
	select {
	case err := <-rootErr:
		if err == nil {
			t.Fatal("root accepted a peer with mismatched world size")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("root bootstrap hung")
	}
}

// TestDialTCPValidatesRank: out-of-range ranks are caller bugs, caught
// before any socket is opened.
func TestDialTCPValidatesRank(t *testing.T) {
	for _, tc := range []struct{ rank, size int }{{-1, 4}, {4, 4}, {0, 0}} {
		if _, err := DialTCP(bg, tc.rank, tc.size, "127.0.0.1:1", nil); err == nil {
			t.Fatalf("DialTCP(%d, %d) succeeded", tc.rank, tc.size)
		}
	}
}

// TestRendezvousTimeout: rank 0 waiting for peers that never come must
// give up at the rendezvous deadline with a context error, not block.
func TestRendezvousTimeout(t *testing.T) {
	opt := &TCPOptions{RendezvousTimeout: 150 * time.Millisecond}
	start := time.Now()
	_, err := DialTCP(bg, 0, 2, "127.0.0.1:0", opt)
	if err == nil {
		t.Fatal("bootstrap succeeded without peers")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 20*time.Second {
		t.Fatalf("bootstrap took %v to fail", elapsed)
	}
}

// TestRunCancellation: cancelling the run's context releases ranks
// blocked in a receive (the shutdown path of a driver that gives up).
func TestRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := RunWorld(ctx, 2, Zero(), WorldOptions{}, func(c *Comm) error {
			if c.Rank() == 0 {
				<-ctx.Done() // hold the rank open so nobody closes cleanly
				return ctx.Err()
			}
			cancel()
			_, err := c.Recv(0, 1) // nothing will ever arrive
			return err
		})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancellation did not release the world")
	}
}

// TestTCPSendRecvLargePayload round-trips a frame big enough to span
// many TCP segments, checking the length-prefixed framing end to end.
func TestTCPSendRecvLargePayload(t *testing.T) {
	const n = 1 << 18 // 2 MiB payload
	_, err := RunWorld(bg, 2, Zero(), WorldOptions{TCP: &TCPOptions{}}, func(c *Comm) error {
		if c.Rank() == 0 {
			data := make([]float64, n)
			for i := range data {
				data[i] = float64(i%977) * 0.5
			}
			return c.Send(1, 9, data)
		}
		in, err := c.Recv(0, 9)
		if err != nil {
			return err
		}
		if len(in) != n {
			return fmt.Errorf("len = %d, want %d", len(in), n)
		}
		for i := range in {
			if in[i] != float64(i%977)*0.5 {
				return fmt.Errorf("elem %d = %v", i, in[i])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
