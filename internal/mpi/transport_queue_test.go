package mpi

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"sync"
	"testing"
	"time"
)

// The TCP mesh has no reader goroutine: a rank reads only inside Recv,
// and a frame the socket does not take whole is queued for a writer
// goroutine. These tests drive that queue: frames far larger than the
// socket buffers, sockets shrunk so that every frame is written in
// part, ranks that return right after sending, and closes that must
// drain the queues or abandon them.

// shrinkSockets sets every connection of a TCP endpoint to a 4 KiB send
// buffer (the kernel may double it), so that an 8 512-word frame
// (68 KiB) cannot be written whole. The receive buffers keep their
// size: one below the loopback MSS (64 KiB) stalls the stream on the
// sender's zero-window probes.
func shrinkSockets(tb testing.TB, tr Transport) Transport {
	t := tr.(*transportTCP)
	for q := range t.peers {
		conn, ok := t.peers[q].conn.(*net.TCPConn)
		if !ok {
			continue
		}
		if err := conn.SetWriteBuffer(4096); err != nil {
			tb.Errorf("rank %d: SO_SNDBUF: %v", t.rank, err)
		}
	}
	return tr
}

// rankData is rank r's n-word Allreduce input: fractions whose sum
// depends on the order of the additions.
func rankData(r, n int) []float64 {
	data := make([]float64, n)
	for i := range data {
		data[i] = float64((r*7919+i*31)%1000003)/3 + 1e-7*float64(r+1)
	}
	return data
}

// allreduceSimTCP runs rounds Allreduces of n words on p ranks over the
// simulated world and then over TCP (opt, wrap) and fails unless every
// TCP rank ends with the simulated run's bits.
func allreduceSimTCP(t *testing.T, p, n, rounds int, opt *TCPOptions, wrap func(int, Transport) Transport) {
	t.Helper()
	body := func(c *Comm, data []float64) error {
		for i := 0; i < rounds; i++ {
			if err := c.Allreduce(Sum, data); err != nil {
				return err
			}
		}
		return nil
	}
	var want []float64
	if _, err := RunWorld(bg, p, Machine{}, WorldOptions{}, func(c *Comm) error {
		data := rankData(c.Rank(), n)
		if err := body(c, data); err != nil {
			return err
		}
		if c.Rank() == 0 {
			want = data
		}
		return nil
	}); err != nil {
		t.Fatalf("sim p=%d: %v", p, err)
	}
	_, err := RunWorld(bg, p, Machine{}, WorldOptions{TCP: opt, Wrap: wrap}, func(c *Comm) error {
		data := rankData(c.Rank(), n)
		if err := body(c, data); err != nil {
			return err
		}
		for i := range want {
			if math.Float64bits(data[i]) != math.Float64bits(want[i]) {
				return fmt.Errorf("rank %d word %d: %v over TCP, %v simulated", c.Rank(), i, data[i], want[i])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("tcp p=%d: %v", p, err)
	}
}

// TestTCPAllreduceOutgrowsSocketBuffers: every rank of an Allreduce
// sends before it receives, so with 128 K-word (1 MiB) frames over 4 KiB
// send buffers every rank's frame outgrows what the sockets hold while
// no one reads. The queue must carry them — no deadlock — and every rank
// must end with the simulated world's bits.
func TestTCPAllreduceOutgrowsSocketBuffers(t *testing.T) {
	for _, p := range []int{2, 3, 5} {
		allreduceSimTCP(t, p, 128<<10, 1, &TCPOptions{RecvTimeout: time.Minute}, func(_ int, tr Transport) Transport {
			return shrinkSockets(t, tr)
		})
	}
}

// lateRecv delays its endpoint's first Recv by d: a rank that computes
// before it reads.
type lateRecv struct {
	Transport
	d    time.Duration
	once sync.Once
}

func (l *lateRecv) Recv(src int) (Message, error) {
	l.once.Do(func() { time.Sleep(l.d) })
	return l.Transport.Recv(src)
}

// TestTCPReceiverLagsPastSendTimeout: a queued frame leaves only as its
// receiver reads, so a receiver may lag as long as RecvTimeout allows
// even when that is past SendTimeout. Rank 1 starts reading 300 ms
// after a 100 ms SendTimeout while rank 0's 1 MiB frame to it sits in
// the queue; the Allreduces still end with the simulated world's bits.
func TestTCPReceiverLagsPastSendTimeout(t *testing.T) {
	opt := &TCPOptions{SendTimeout: 100 * time.Millisecond, RecvTimeout: 5 * time.Second}
	allreduceSimTCP(t, 2, 128<<10, 2, opt, func(rank int, tr Transport) Transport {
		tr = shrinkSockets(t, tr)
		if rank == 1 {
			return &lateRecv{Transport: tr, d: 300 * time.Millisecond}
		}
		return tr
	})
}

// TestTCPPartialWritesQueued: with 4 KiB send buffers an 8 512-word
// frame is always written in part and finished by the writer goroutine,
// while the partner, which sent first too, reads. Twenty Allreduces at
// P = 2 and P = 3 keep the simulated world's bits, and the first frame
// each rank sent was indeed queued.
func TestTCPPartialWritesQueued(t *testing.T) {
	for _, p := range []int{2, 3} {
		allreduceSimTCP(t, p, 8512, 20, &TCPOptions{RecvTimeout: time.Minute}, func(_ int, tr Transport) Transport {
			return shrinkSockets(t, tr)
		})
	}
	_, err := RunWorld(bg, 2, Machine{}, WorldOptions{TCP: &TCPOptions{}, Wrap: func(_ int, tr Transport) Transport {
		return shrinkSockets(t, tr)
	}}, func(c *Comm) error {
		peer := 1 - c.Rank()
		if err := c.Send(peer, 1, make([]float64, 8512)); err != nil {
			return err
		}
		tr := c.t.(*transportTCP)
		if p := &tr.peers[peer]; p.wrote >= len(p.out) {
			return fmt.Errorf("rank %d: the socket took all %d bytes of the frame at once", c.Rank(), len(p.out))
		}
		_, err := c.Recv(peer, 1)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// closeSignal reports on closing when its rank's Close begins, and
// whether frames to rank 0 were still queued then.
type closeSignal struct {
	Transport
	closing chan<- bool
}

func (c closeSignal) Close() error {
	p := &c.Transport.(*transportTCP).peers[0]
	p.mu.Lock()
	queued := p.flushing
	p.mu.Unlock()
	c.closing <- queued
	return c.Transport.Close()
}

// TestTCPSendThenReturnLosesNothing is dist's gatherX shape: every rank
// but 0 sends its frames and returns at once, so its endpoint closes
// with frames still queued. Close must drain them first: rank 0, which
// starts reading only once every other rank is closing and then 300 ms
// past a 100 ms SendTimeout, gets every frame bit for bit and in order,
// and then sees each peer gone.
func TestTCPSendThenReturnLosesNothing(t *testing.T) {
	msgs, _ := testFrames(12)
	const p = 4
	closing := make(chan bool, p)
	opt := &TCPOptions{SendTimeout: 100 * time.Millisecond}
	_, err := RunWorld(bg, p, Machine{}, WorldOptions{TCP: opt, Wrap: func(rank int, tr Transport) Transport {
		if rank == 0 {
			return tr
		}
		return closeSignal{shrinkSockets(t, tr), closing}
	}}, func(c *Comm) error {
		if c.Rank() != 0 {
			for _, m := range msgs {
				if err := c.t.Send(0, m); err != nil {
					return err
				}
			}
			return nil
		}
		for r := 1; r < p; r++ {
			if !<-closing {
				return errors.New("a rank closed with nothing queued: the test lost its subject")
			}
		}
		time.Sleep(300 * time.Millisecond)
		for src := 1; src < p; src++ {
			for i, want := range msgs {
				got, err := c.t.Recv(src)
				if err != nil {
					return fmt.Errorf("frame %d from rank %d: %w", i, src, err)
				}
				if d := sameMessage(got, want); d != "" {
					return fmt.Errorf("frame %d from rank %d: %s", i, src, d)
				}
			}
			if _, err := c.t.Recv(src); !errors.Is(err, ErrPeerGone) {
				return fmt.Errorf("Recv from rank %d after its frames: %v, want ErrPeerGone", src, err)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// tcpPair boots a two-rank mesh with opt; ctx is rank 1's.
func tcpPair(t *testing.T, ctx context.Context, opt *TCPOptions) (t0, t1 *transportTCP) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	root := make(chan Transport, 1)
	go func() {
		tr, err := bootTCPRoot(bg, ln, 2, opt)
		if err != nil {
			t.Error(err)
		}
		root <- tr
	}()
	tr1, err := DialTCP(ctx, 1, 2, ln.Addr().String(), opt)
	if err != nil {
		t.Fatal(err)
	}
	tr0 := <-root
	if tr0 == nil {
		t.FailNow()
	}
	t0, t1 = shrinkSockets(t, tr0).(*transportTCP), shrinkSockets(t, tr1).(*transportTCP)
	t.Cleanup(func() { t0.Close(); t1.Close() })
	return t0, t1
}

// closeWithin fails the test unless tr.Close returns within d, and
// returns Close's error.
func closeWithin(t *testing.T, tr *transportTCP, d time.Duration) error {
	t.Helper()
	start := time.Now()
	err := tr.Close()
	if took := time.Since(start); took > d {
		t.Fatalf("Close took %v, want at most %v", took, d)
	}
	return err
}

// TestTCPCloseDrainBounded: a clean Close waits for its queued frames,
// but not past the larger of SendTimeout and RecvTimeout when the peer
// never reads; the frames it gave up on are its error.
func TestTCPCloseDrainBounded(t *testing.T) {
	_, t1 := tcpPair(t, bg, &TCPOptions{SendTimeout: 100 * time.Millisecond, RecvTimeout: 200 * time.Millisecond})
	if err := t1.Send(0, Message{Data: make([]float64, 1<<16)}); err != nil {
		t.Fatal(err)
	}
	err := closeWithin(t, t1, 10*time.Second)
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("Close with frames the peer never read: %v, want a deadline error", err)
	}
}

// TestTCPCloseAbortDoesNotWait: with frames queued to a peer that never
// reads, neither a Close from another goroutine while the rank is
// blocked in Recv nor a Close after the rank's context was cancelled
// waits for them; the blocked Recv fails with a *PeerError.
func TestTCPCloseAbortDoesNotWait(t *testing.T) {
	opt := &TCPOptions{SendTimeout: time.Minute}
	t.Run("supervisor", func(t *testing.T) {
		_, t1 := tcpPair(t, bg, opt)
		if err := t1.Send(0, Message{Data: make([]float64, 1<<16)}); err != nil {
			t.Fatal(err)
		}
		recvErr := make(chan error, 1)
		go func() {
			_, err := t1.Recv(0)
			recvErr <- err
		}()
		for !t1.waiting.Load() {
			time.Sleep(time.Millisecond)
		}
		closeWithin(t, t1, 10*time.Second)
		var pe *PeerError
		if err := <-recvErr; !errors.As(err, &pe) || pe.Peer != 0 {
			t.Fatalf("Recv blocked across Close: %v, want a *PeerError from rank 0", err)
		}
	})
	t.Run("cancel", func(t *testing.T) {
		ctx, cancel := context.WithCancel(bg)
		_, t1 := tcpPair(t, ctx, opt)
		if err := t1.Send(0, Message{Data: make([]float64, 1<<16)}); err != nil {
			t.Fatal(err)
		}
		cancel()
		if err := closeWithin(t, t1, 10*time.Second); err != nil {
			t.Fatalf("Close after cancel: %v", err)
		}
	})
}
