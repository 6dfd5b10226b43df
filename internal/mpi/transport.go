package mpi

import (
	"errors"
	"fmt"
)

// Message is one point-to-point transfer as a transport sees it: a tag
// for matching, the payload, and the sender's virtual clock at send
// completion. The clock piggybacks the α-β-γ cost model: the simulated
// world uses it to align receiver clocks, and the TCP transport carries
// it on the wire (8 bytes per frame) so a machine model charged on a
// networked run stays bitwise identical to the simulated one.
type Message struct {
	Tag   int
	Clock float64
	Data  []float64
}

// Transport is the point-to-point contract under Comm: one rank's
// endpoint into a world of Size() ranks. Two implementations ship: the
// in-process simulated world (goroutine ranks over a channel mesh,
// transportSim) and a length-prefixed TCP mesh across real processes
// (transportTCP). The collectives are written once against Comm, which
// wraps any Transport, so the same recursive-doubling exchanges run on
// both.
//
// A Transport is owned by a single rank goroutine: Send and Recv are
// never called concurrently with themselves or each other. Over TCP the
// rank reads its own frames inside Recv (there is no reader goroutine),
// and Send never blocks on a peer that is not reading: what the socket
// does not take is queued for a short-lived writer goroutine. Close may
// be called from another goroutine (shutdown paths) and must be
// idempotent.
type Transport interface {
	// Rank returns this endpoint's rank in [0, Size).
	Rank() int
	// Size returns the number of ranks in the world.
	Size() int
	// Send delivers msg to dst. The payload must not be retained or
	// mutated after the call returns: transports that queue in memory
	// copy it, transports that serialize write it out before returning.
	Send(dst int, msg Message) error
	// Recv blocks for the next message from src, in send order. A
	// vanished peer (finished goroutine, torn connection) fails fast
	// with a *PeerError instead of blocking forever.
	//
	// The returned payload is valid until the next Recv from the same
	// src: a transport may then reuse it for a later message (the TCP
	// mesh decodes every frame from src into one buffer, so its steady
	// state allocates nothing; the simulated world hands out a fresh copy
	// each time, which conforms). Every caller consumes the payload
	// before its next Recv from that rank: Comm.Recv passes it on under
	// the same contract, Allreduce combines it into its own buffer,
	// dist's gatherX copies it out, Barrier drops it, and the fault
	// injector and the benchmark's tracing decorator pass it through
	// after reading only its length.
	Recv(src int) (Message, error)
	// Close releases the endpoint. In the simulated world it marks the
	// rank finished so peers blocked on it fail fast; over TCP it first
	// lets the frames its Sends queued drain (each write bounded as in
	// TCPOptions.SendTimeout; not at all after the caller's context is
	// cancelled, or while the rank is blocked in Recv) and then tears
	// down the connection mesh.
	Close() error
}

// Sentinel causes of peer failures, wrapped inside *PeerError.
var (
	// ErrPeerGone marks a peer that finished (or died) without sending
	// the message the local rank is blocked on, or whose end closed
	// before a send to it was delivered.
	ErrPeerGone = errors.New("peer is gone without sending")
	// ErrTagMismatch marks a message whose tag does not match the
	// receiver's expectation — a mismatched SPMD program (one rank in an
	// Allreduce while another is in a Barrier), caught instead of
	// misdelivered.
	ErrTagMismatch = errors.New("tag mismatch")
)

// PeerError is the graceful rank-failure error of a point-to-point
// operation: it names both ends and the operation so a failed
// collective reads like
//
//	mpi: rank 2: recv from rank 0 (tag -9): peer is gone without sending
//
// rather than deadlocking the world. Errors.Is matches the sentinel
// causes (ErrPeerGone, ErrTagMismatch, context.Canceled, net errors).
type PeerError struct {
	Rank int    // the local rank observing the failure
	Peer int    // the remote rank
	Op   string // "send" or "recv"
	Tag  int    // the tag in flight (for recv: the expected tag)
	Err  error  // the underlying cause
}

func (e *PeerError) Error() string {
	return fmt.Sprintf("mpi: rank %d: %s %s rank %d (tag %d): %v",
		e.Rank, e.Op, e.direction(), e.Peer, e.Tag, e.Err)
}

func (e *PeerError) direction() string {
	if e.Op == "send" {
		return "to"
	}
	return "from"
}

// Unwrap exposes the cause to errors.Is / errors.As.
func (e *PeerError) Unwrap() error { return e.Err }
