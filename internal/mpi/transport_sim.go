package mpi

import (
	"context"
	"fmt"
	"sync"
)

// simWorld owns the channel mesh of one simulated cluster run: ranks
// are goroutines, messages are Go channels, and a per-rank done channel
// makes a Recv from a finished rank fail fast instead of deadlocking
// the world (the historical failure mode of mismatched send/recv
// pairs).
type simWorld struct {
	p       int
	chans   [][]chan Message // chans[src][dst]
	done    []chan struct{}  // done[r] closes when rank r's endpoint closes
	closers []sync.Once
	ctx     context.Context
}

func newSimWorld(ctx context.Context, p int) *simWorld {
	w := &simWorld{p: p, ctx: ctx, done: make([]chan struct{}, p), closers: make([]sync.Once, p)}
	w.chans = make([][]chan Message, p)
	for i := range w.chans {
		w.chans[i] = make([]chan Message, p)
		for j := range w.chans[i] {
			// Capacity bounds the number of in-flight messages per
			// ordered pair. The collectives need 1 (recursive doubling
			// sends each partner one block per call); a margin is kept
			// for pipelined point-to-point use.
			w.chans[i][j] = make(chan Message, 64)
		}
		w.done[i] = make(chan struct{})
	}
	return w
}

// transport returns rank's endpoint into the world.
func (w *simWorld) transport(rank int) *transportSim {
	return &transportSim{w: w, rank: rank}
}

// transportSim is the in-process Transport: rank goroutines exchanging
// copied payloads over the world's channel mesh. It is the reference
// implementation — every deterministic trajectory in the test suite is
// anchored on it — and the TCP transport must match it bitwise.
type transportSim struct {
	w    *simWorld
	rank int
}

// Rank returns this endpoint's rank.
func (t *transportSim) Rank() int { return t.rank }

// Size returns the world's rank count.
func (t *transportSim) Size() int { return t.w.p }

// Send copies the payload (messages are immutable in flight, so callers
// may reuse buffers — the copy is also what a real NIC DMA would do)
// and enqueues it for dst. A finished dst fails the send fast with a
// *PeerError instead of filling the channel and deadlocking.
func (t *transportSim) Send(dst int, msg Message) error {
	if dst < 0 || dst >= t.w.p || dst == t.rank {
		return fmt.Errorf("mpi: rank %d: send to invalid rank %d of %d", t.rank, dst, t.w.p)
	}
	payload := make([]float64, len(msg.Data))
	copy(payload, msg.Data)
	msg.Data = payload
	ch := t.w.chans[t.rank][dst]
	select {
	case ch <- msg: // fast path: buffer space available
		return nil
	default:
	}
	select {
	case ch <- msg:
		return nil
	case <-t.w.done[dst]:
		return &PeerError{Rank: t.rank, Peer: dst, Op: "send", Tag: msg.Tag, Err: ErrPeerGone}
	case <-t.w.ctx.Done():
		return &PeerError{Rank: t.rank, Peer: dst, Op: "send", Tag: msg.Tag, Err: t.w.ctx.Err()}
	}
}

// Recv blocks for the next message from src. If src's endpoint closes
// first, any message it already enqueued is still delivered (the close
// happens after all of its sends), and only then does Recv fail with a
// *PeerError naming both ranks.
func (t *transportSim) Recv(src int) (Message, error) {
	if src < 0 || src >= t.w.p || src == t.rank {
		return Message{}, fmt.Errorf("mpi: rank %d: recv from invalid rank %d of %d", t.rank, src, t.w.p)
	}
	ch := t.w.chans[src][t.rank]
	select {
	case msg := <-ch: // fast path: message already queued
		return msg, nil
	default:
	}
	select {
	case msg := <-ch:
		return msg, nil
	case <-t.w.done[src]:
		// The peer closed between our poll and the select: drain the
		// channel before declaring it gone (its sends happened-before
		// the close).
		select {
		case msg := <-ch:
			return msg, nil
		default:
			return Message{}, &PeerError{Rank: t.rank, Peer: src, Op: "recv", Err: ErrPeerGone}
		}
	case <-t.w.ctx.Done():
		return Message{}, &PeerError{Rank: t.rank, Peer: src, Op: "recv", Err: t.w.ctx.Err()}
	}
}

// Close marks the rank finished, failing peers blocked on it fast.
func (t *transportSim) Close() error {
	t.w.closers[t.rank].Do(func() { close(t.w.done[t.rank]) })
	return nil
}
