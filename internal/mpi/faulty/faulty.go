// Package faulty is the fault-injection harness of the transport layer:
// a Transport wrapper that kills, drops or delays a chosen rank at a
// chosen point-to-point operation. The checkpoint/restart tests use it
// to prove the recovery contract — a rank killed at s-step k and
// restarted from its checkpoint produces a trajectory bitwise identical
// to the uninterrupted run — without racing real process signals.
//
// Faults are one-shot across a whole supervised run: an Injector fires
// at most once even when the driver re-runs the world for recovery,
// mirroring a real process that is killed once and then restarted
// healthy. Operation counts also persist across attempts, so "the Nth
// send" means the Nth of the first (interrupted) attempt.
package faulty

import (
	"fmt"
	"sync/atomic"
	"time"

	"saco/internal/mpi"
)

// ErrInjected marks a failure manufactured by the harness. It wraps
// mpi.ErrPeerGone, so recovery paths classify an injected kill exactly
// like a real vanished peer.
var ErrInjected = fmt.Errorf("faulty: injected fault: %w", mpi.ErrPeerGone)

// Plan says which rank suffers what, and when. Counts are 1-based over
// the afflicted rank's own operations; zero disables that fault.
type Plan struct {
	// Rank is the afflicted rank; all other ranks pass through.
	Rank int
	// KillAtSend kills the rank immediately before its Nth Send: the
	// underlying transport closes (peers observe a vanished rank) and
	// the send fails with ErrInjected.
	KillAtSend int
	// KillAtRecv is KillAtSend for the Nth Recv.
	KillAtRecv int
	// DropAtSend silently discards the Nth Send (the frame never leaves
	// the rank) — a lost message, surfacing at peers as a receive
	// timeout or tag skew. Only meaningful on transports with receive
	// deadlines; the simulated world would block forever.
	DropAtSend int
	// DelayAtRecv stalls the rank for Delay (wall time) before its Nth
	// Recv completes — a straggler, not a failure.
	DelayAtRecv int
	// Delay is the stall of DelayAtRecv; default 10ms.
	Delay time.Duration
}

// Injector carries a Plan's state across a supervised run: wrap every
// rank's transport through Wrap (the mpi.WorldOptions.Wrap /
// dist.Options.WrapTransport seam) and the plan fires exactly once.
type Injector struct {
	plan         Plan
	sends, recvs atomic.Int64
	fired        atomic.Bool
}

// New builds an injector for plan.
func New(plan Plan) *Injector {
	if plan.Delay <= 0 {
		plan.Delay = 10 * time.Millisecond
	}
	return &Injector{plan: plan}
}

// Wrap interposes the plan on rank's endpoint; other ranks' transports
// are returned untouched.
func (in *Injector) Wrap(rank int, t mpi.Transport) mpi.Transport {
	if rank != in.plan.Rank {
		return t
	}
	return &transport{Transport: t, in: in}
}

// Sends returns how many Send calls the afflicted rank has made through
// the injector — run a clean plan (no faults) first to calibrate
// "kill at half the run".
func (in *Injector) Sends() int64 { return in.sends.Load() }

// Fired reports whether the one-shot fault has been injected.
func (in *Injector) Fired() bool { return in.fired.Load() }

// transport decorates the afflicted rank's endpoint.
type transport struct {
	mpi.Transport
	in *Injector
}

// fire consumes the one-shot if n matches at, returning whether the
// fault happens now.
func (in *Injector) fire(at int, n int64) bool {
	return at > 0 && n == int64(at) && in.fired.CompareAndSwap(false, true)
}

func (t *transport) Send(dst int, msg mpi.Message) error {
	n := t.in.sends.Add(1)
	if t.in.fire(t.in.plan.KillAtSend, n) {
		t.Transport.Close() //saco:nolint commerr injected kill: the teardown is the fault itself
		return &mpi.PeerError{Rank: t.Rank(), Peer: dst, Op: "send", Tag: msg.Tag,
			Err: fmt.Errorf("killed at send %d: %w", n, ErrInjected)}
	}
	if t.in.fire(t.in.plan.DropAtSend, n) {
		return nil // the frame vanishes; the peer's deadline finds out
	}
	return t.Transport.Send(dst, msg)
}

func (t *transport) Recv(src int) (mpi.Message, error) {
	n := t.in.recvs.Add(1)
	if t.in.fire(t.in.plan.KillAtRecv, n) {
		t.Transport.Close() //saco:nolint commerr injected kill: the teardown is the fault itself
		return mpi.Message{}, &mpi.PeerError{Rank: t.Rank(), Peer: src, Op: "recv",
			Err: fmt.Errorf("killed at recv %d: %w", n, ErrInjected)}
	}
	if t.in.fire(t.in.plan.DelayAtRecv, n) {
		time.Sleep(t.in.plan.Delay)
	}
	return t.Transport.Recv(src)
}
