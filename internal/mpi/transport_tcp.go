package mpi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"syscall"
	"time"

	"saco/internal/wire"
)

// TCPOptions tunes the networked transport. The zero value (or a nil
// pointer) picks defaults suitable for loopback clusters and CI.
type TCPOptions struct {
	// RendezvousTimeout bounds the bootstrap: rank 0 waiting for all
	// hellos, peers dialing the rendezvous address (with retry, so
	// process start order does not matter) and the mesh handshake.
	// Default 30s.
	RendezvousTimeout time.Duration
	// SendTimeout is the per-frame write deadline. A peer that stops
	// draining its socket fails the sender within this bound instead of
	// blocking forever. Default 30s.
	SendTimeout time.Duration
	// RecvTimeout bounds how long Recv waits for the next frame from a
	// peer. SPMD programs advance in lockstep, so a silence longer than
	// this means the peer is dead or the program is mismatched; the
	// receiver fails with a *PeerError instead of hanging. Default 120s;
	// set negative to disable.
	RecvTimeout time.Duration
	// ListenAddr is where a non-root rank listens for mesh connections
	// from higher ranks. Default "127.0.0.1:0" (loopback, ephemeral
	// port); multi-machine clusters set it to an externally reachable
	// interface.
	ListenAddr string
	// AdvertiseAddr overrides the address published to peers in the
	// world descriptor. Default: the mesh listener's own address (works
	// on loopback; NAT or multi-homed hosts override it).
	AdvertiseAddr string
	// Epoch is the control-plane generation of this world. A supervised
	// cluster bumps it on every restart so that stale dialers from a
	// previous generation — a zombie process still retrying the
	// rendezvous after its world was torn down and rebuilt — are
	// refused instead of corrupting the new mesh. Rank 0 rejects hellos
	// carrying an epoch below its own and adopts the highest epoch it
	// sees; the agreed value rides the world descriptor, so every
	// endpoint learns it (Transport Epoch / TransportEpoch). Negative
	// means unknown (a freshly resumed process that cannot know how
	// many generations passed): such a rank joins any epoch and adopts
	// the world's. Default 0.
	Epoch int
}

func (o *TCPOptions) withDefaults() TCPOptions {
	var v TCPOptions
	if o != nil {
		v = *o
	}
	if v.RendezvousTimeout <= 0 {
		v.RendezvousTimeout = 30 * time.Second
	}
	if v.SendTimeout <= 0 {
		v.SendTimeout = 30 * time.Second
	}
	if v.RecvTimeout == 0 {
		v.RecvTimeout = 120 * time.Second
	}
	if v.ListenAddr == "" {
		v.ListenAddr = "127.0.0.1:0"
	}
	return v
}

// helloMsg is the bootstrap control message: a peer's hello to rank 0
// and the ident a mesh dialer presents. Control messages are
// length-prefixed JSON; data frames are binary (see appendFrame).
type helloMsg struct {
	Rank    int    `json:"rank"`
	Size    int    `json:"size"`
	Addr    string `json:"addr,omitempty"`
	Epoch   int    `json:"epoch"`   // negative: unknown, join any generation
	Version int    `json:"version"` // the data-frame format; absent (0) before checksummed frames
}

// worldMsg is the descriptor rank 0 broadcasts once every peer has said
// hello: the mesh addresses of all ranks. Addrs[0] is unused (every rank
// is already connected to rank 0 via its hello connection).
type worldMsg struct {
	Size    int      `json:"size"`
	Addrs   []string `json:"addrs"`
	Epoch   int      `json:"epoch"`   // the agreed control-plane generation
	Version int      `json:"version"` // the data-frame format rank 0 speaks
}

// frameVersion is the data-frame format this build speaks, carried by
// every rendezvous hello and world descriptor (a mesh ident needs none:
// its sender already passed rank 0's check). Format 1 added the CRC-32
// trailer; builds before it send no version field, which decodes as 0.
// A mixed cluster is refused at the rendezvous, naming both formats,
// instead of failing on its first frame.
const frameVersion = 1

// checkVersion refuses a control message whose frame format is not this
// build's; what names the sender.
func checkVersion(what string, v int) error {
	if v != frameVersion {
		return fmt.Errorf("%s speaks frame format %d, this build speaks %d", what, v, frameVersion)
	}
	return nil
}

// transportTCP is the networked Transport: a full mesh of TCP
// connections, one per rank pair, carrying frames
// [u32 words][i64 tag][u64 clock bits][payload float64 LE][u32 CRC-32],
// the checksum covering everything before it. A per-peer reader
// goroutine verifies and decodes each frame into a payload recycled
// through that peer's free list and feeds an inbox channel, so Recv is a
// channel wait with a deadline and a torn connection or a corrupt frame
// surfaces as a sticky error, not a hang or a different trajectory. In
// steady state neither side allocates: Send encodes into one reused
// buffer, the reader reads into one frame buffer per peer (one Read per
// frame when the frame has arrived whole, decoded where it lies), and
// Recv arms one reused timer only when it has to wait. Bootstrap: rank 0
// listens at the rendezvous address, peers dial (with retry), exchange
// hellos, and rank 0 broadcasts the world descriptor; the hello
// connection is reused as the 0↔r data connection, and within the mesh
// the lower rank listens while the higher rank dials.
type transportTCP struct {
	rank, size int
	opt        TCPOptions
	epoch      int // the world's agreed control-plane generation
	conns      []net.Conn
	inbox      []chan Message
	rerr       []error // sticky reader error per peer, set before inbox close
	mu         sync.Mutex
	closed     chan struct{}
	closeOnce  sync.Once
	wbuf       []byte // send serialization buffer (single sender goroutine)
	// free[p] holds payloads the rank is done with, for p's reader to
	// decode into; held[p] is the payload the last Recv from p returned,
	// valid until the next Recv from p hands it back. A bounded channel,
	// not a sync.Pool, for sparse.gramFree's reason: a GC cycle would
	// empty a pool and the next frame would allocate again.
	free  []chan []float64
	held  [][]float64
	timer *time.Timer // Recv's deadline, armed only when it must wait
}

// payloadFreeSlots bounds each peer's free list. In lockstep SPMD
// traffic two or three payloads per peer circulate (one held by the
// rank, one being decoded, one queued); a burst that queued more drops
// the surplus as the rank catches up.
const payloadFreeSlots = 4

// Epoch returns the world's agreed control-plane generation (see
// TCPOptions.Epoch). A supervised process passes Epoch+1 when it
// rebuilds the mesh after a peer loss.
func (t *transportTCP) Epoch() int { return t.epoch }

// TransportEpoch returns t's control-plane epoch when the transport has
// one (the TCP mesh); the simulated world and other transports report 0.
func TransportEpoch(t Transport) int {
	if e, ok := t.(interface{ Epoch() int }); ok {
		return e.Epoch()
	}
	return 0
}

// newTransportTCP allocates rank's endpoint of a size-rank world, with
// no connection made yet.
func newTransportTCP(rank, size int, o TCPOptions) *transportTCP {
	t := &transportTCP{
		rank:   rank,
		size:   size,
		opt:    o,
		epoch:  max(o.Epoch, 0),
		conns:  make([]net.Conn, size),
		inbox:  make([]chan Message, size),
		rerr:   make([]error, size),
		closed: make(chan struct{}),
		free:   make([]chan []float64, size),
		held:   make([][]float64, size),
	}
	for i := range t.inbox {
		t.inbox[i] = make(chan Message, 64)
		t.free[i] = make(chan []float64, payloadFreeSlots)
	}
	return t
}

// DialTCP establishes one rank's endpoint of a TCP world of the given
// size. addr is the rendezvous address: rank 0 listens on it, every
// other rank dials it (retrying until the rendezvous timeout, so ranks
// may start in any order). The call returns once the full connection
// mesh is up — it is the collective "MPI_Init" of a networked run.
func DialTCP(ctx context.Context, rank, size int, addr string, opt *TCPOptions) (Transport, error) {
	if size <= 0 || rank < 0 || rank >= size {
		return nil, fmt.Errorf("mpi: DialTCP rank %d of %d", rank, size)
	}
	o := opt.withDefaults()
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, cancel := context.WithTimeout(ctx, o.RendezvousTimeout)
	defer cancel()
	t := newTransportTCP(rank, size, o)
	var err error
	if rank == 0 {
		err = t.bootstrapRoot(ctx, addr)
	} else {
		err = t.bootstrapPeer(ctx, addr)
	}
	if err != nil {
		t.Close() //saco:nolint commerr best-effort teardown of a half-built mesh; the bootstrap error is propagating
		return nil, fmt.Errorf("mpi: rank %d: tcp bootstrap: %w", rank, err)
	}
	for p := 0; p < size; p++ {
		if p != rank {
			go t.reader(p)
		}
	}
	return t, nil
}

// bootstrapRoot runs rank 0's side of the rendezvous: listen, collect a
// hello from every peer, then broadcast the world descriptor.
func (t *transportTCP) bootstrapRoot(ctx context.Context, addr string) error {
	var lc net.ListenConfig
	ln, err := lc.Listen(ctx, "tcp", addr)
	if err != nil {
		return fmt.Errorf("listen %s: %w", addr, err)
	}
	defer ln.Close()
	return t.acceptPeers(ctx, ln)
}

// acceptPeers is the body of rank 0's rendezvous over an already-bound
// listener: collect a hello from every peer, then broadcast the world
// descriptor. The hello connections become the 0↔r data connections.
// Hellos from an older control-plane epoch are refused (connection
// closed, accept loop continues): they are zombies of a torn-down world
// generation, and letting one in would wedge the rebuilt mesh. The
// agreed epoch — the highest seen, so a restarted root with an unknown
// epoch converges on the survivors' — rides the descriptor.
func (t *transportTCP) acceptPeers(ctx context.Context, ln net.Listener) error {
	stopGuard := closeOnDone(ctx, ln)
	defer stopGuard()
	addrs := make([]string, t.size)
	for have := 1; have < t.size; {
		conn, err := ln.Accept()
		if err != nil {
			return fmt.Errorf("accept (have %d of %d peers): %w", have-1, t.size-1, ctxErr(ctx, err))
		}
		var hello helloMsg
		if err := readCtl(conn, &hello); err != nil {
			conn.Close()
			return fmt.Errorf("read hello: %w", err)
		}
		if hello.Epoch >= 0 && hello.Epoch < t.epoch {
			// A stale dialer from a previous world generation: refuse it
			// and keep the rendezvous open for the real peers. The zombie
			// sees EOF on the descriptor read and gives up when its own
			// rendezvous timeout expires.
			conn.Close()
			continue
		}
		if err := checkVersion(fmt.Sprintf("peer rank %d", hello.Rank), hello.Version); err != nil {
			conn.Close()
			return err
		}
		if hello.Size != t.size {
			conn.Close()
			return fmt.Errorf("peer rank %d joined with world size %d, want %d", hello.Rank, hello.Size, t.size)
		}
		if hello.Rank <= 0 || hello.Rank >= t.size || t.conns[hello.Rank] != nil {
			conn.Close()
			return fmt.Errorf("invalid or duplicate hello from rank %d", hello.Rank)
		}
		if hello.Epoch > t.epoch {
			t.epoch = hello.Epoch
		}
		t.conns[hello.Rank] = conn
		addrs[hello.Rank] = hello.Addr
		have++
	}
	world := worldMsg{Size: t.size, Addrs: addrs, Epoch: t.epoch, Version: frameVersion}
	for p := 1; p < t.size; p++ {
		if err := writeCtl(t.conns[p], world); err != nil {
			return fmt.Errorf("send world descriptor to rank %d: %w", p, err)
		}
	}
	return nil
}

// bootstrapPeer runs a non-root rank's side: open the mesh listener,
// dial the rendezvous with retry, say hello, learn the world, then
// build the mesh (dial every lower rank, accept every higher one).
func (t *transportTCP) bootstrapPeer(ctx context.Context, addr string) error {
	var lc net.ListenConfig
	ln, err := lc.Listen(ctx, "tcp", t.opt.ListenAddr)
	if err != nil {
		return fmt.Errorf("mesh listen %s: %w", t.opt.ListenAddr, err)
	}
	defer ln.Close()
	stopGuard := closeOnDone(ctx, ln)
	defer stopGuard()
	advertise := t.opt.AdvertiseAddr
	if advertise == "" {
		advertise = ln.Addr().String()
	}

	root, err := dialRetry(ctx, addr, t.rank)
	if err != nil {
		return fmt.Errorf("dial rendezvous %s: %w", addr, err)
	}
	t.conns[0] = root
	if err := writeCtl(root, helloMsg{Rank: t.rank, Size: t.size, Addr: advertise, Epoch: t.opt.Epoch, Version: frameVersion}); err != nil {
		return fmt.Errorf("send hello: %w", err)
	}
	var world worldMsg
	if err := readCtl(root, &world); err != nil {
		return fmt.Errorf("read world descriptor: %w", err)
	}
	if err := checkVersion("world descriptor", world.Version); err != nil {
		return err
	}
	if world.Size != t.size || len(world.Addrs) != t.size {
		return fmt.Errorf("world descriptor size %d, want %d", world.Size, t.size)
	}
	t.epoch = world.Epoch // the root's agreed generation

	// Mesh rule: the lower rank listens, the higher rank dials. Every
	// mesh listener exists before rank 0 releases the descriptor (it is
	// opened before the hello), so the dials below cannot race a missing
	// listener; the kernel backlog holds them until the peer accepts.
	for q := 1; q < t.rank; q++ {
		conn, err := dialRetry(ctx, world.Addrs[q], t.rank)
		if err != nil {
			return fmt.Errorf("dial mesh peer rank %d at %s: %w", q, world.Addrs[q], err)
		}
		if err := writeCtl(conn, helloMsg{Rank: t.rank, Size: t.size}); err != nil {
			conn.Close()
			return fmt.Errorf("ident to rank %d: %w", q, err)
		}
		t.conns[q] = conn
	}
	for n := t.rank + 1; n < t.size; n++ {
		conn, err := ln.Accept()
		if err != nil {
			return fmt.Errorf("mesh accept: %w", ctxErr(ctx, err))
		}
		var ident helloMsg
		if err := readCtl(conn, &ident); err != nil {
			conn.Close()
			return fmt.Errorf("read mesh ident: %w", err)
		}
		if ident.Rank <= t.rank || ident.Rank >= t.size || t.conns[ident.Rank] != nil {
			conn.Close()
			return fmt.Errorf("invalid or duplicate mesh ident from rank %d", ident.Rank)
		}
		t.conns[ident.Rank] = conn
	}
	return nil
}

// closeOnDone closes c when ctx is cancelled, unblocking Accept/Read
// calls that have no context form. The returned stop function must be
// deferred to release the watcher.
func closeOnDone(ctx context.Context, c io.Closer) (stop func()) {
	done := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			c.Close()
		case <-done:
		}
	}()
	return func() { close(done) }
}

// ctxErr prefers the context's error over the opaque network error it
// induces (closed listener, reset connection) so bootstrap timeouts read
// as timeouts.
func ctxErr(ctx context.Context, err error) error {
	if ctx.Err() != nil {
		return ctx.Err()
	}
	return err
}

// dialRetry dials addr until it succeeds or ctx expires, pacing retries
// with dialBackoff. Retrying makes process start order irrelevant: a
// peer may come up before the rank it must reach is listening.
func dialRetry(ctx context.Context, addr string, rank int) (net.Conn, error) {
	var d net.Dialer
	var lastErr error
	for attempt := 0; ; attempt++ {
		conn, err := d.DialContext(ctx, "tcp", addr)
		if err == nil {
			if tc, ok := conn.(*net.TCPConn); ok {
				tc.SetNoDelay(true) // latency matters more than batching here
			}
			return conn, nil
		}
		lastErr = err
		select {
		case <-ctx.Done():
			if lastErr != nil {
				return nil, fmt.Errorf("%w (last attempt: %v)", ctx.Err(), lastErr)
			}
			return nil, ctx.Err()
		case <-time.After(dialBackoff(attempt, rank)):
		}
	}
}

// Control-plane messages are length-prefixed JSON. The explicit length
// prefix (rather than a streaming decoder) keeps the decoder from
// buffering past the message into the binary frames that follow on the
// same connection.
const maxCtlBytes = 1 << 20

func writeCtl(conn net.Conn, v any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return err
	}
	w := wire.Writer{B: make([]byte, 0, 4+len(body))}
	w.U32(uint32(len(body)))
	w.Bytes(body)
	_, err = conn.Write(w.B)
	return err
}

func readCtl(conn net.Conn, v any) error {
	var hdr [4]byte
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		return err
	}
	r := wire.NewReader("control message", hdr[:])
	n := r.U32("length")
	if n > maxCtlBytes {
		return fmt.Errorf("control message of %d bytes exceeds limit", n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(conn, body); err != nil {
		return err
	}
	return json.Unmarshal(body, v)
}

// Data frames: [u32 payload words][i64 tag][u64 clock bits][payload LE]
// sealed with a wire.CRC32 trailer over all of it.
const (
	frameHdrBytes = 4 + 8 + 8
	maxFrameWords = 1 << 27 // 1 GiB of payload: Send refuses more, and a reader seeing more calls it corruption
	// A peer's frame buffer starts at frameChunkMin and grows only as
	// bytes arrive: by the bytes so far, at least frameChunkMin and at
	// most frameChunk at a time, so a header alone cannot make a reader
	// allocate more than frameChunkMin (see frameReader).
	frameChunkMin = 64 << 10
	frameChunk    = 1 << 20
)

// appendFrame appends msg's sealed frame to b. Send encodes through it
// and every frame frameReader accepts re-encodes through it byte for
// byte.
func appendFrame(b []byte, msg Message) []byte {
	w := wire.Writer{B: b}
	w.U32(uint32(len(msg.Data)))
	w.U64(uint64(int64(msg.Tag)))
	w.F64(msg.Clock)
	w.F64s(msg.Data)
	return wire.CRC32.Seal(w.B)
}

// frameReader reads the frames of one peer's stream into one buffer it
// owns: buf[off:] holds the bytes read and not yet consumed. Every Read
// asks for all the room the buffer has, so a frame whose header and body
// arrived together costs one call, and the bytes a read brings past a
// frame stay buffered for the next one. A frame is verified and decoded
// where it lies; its bytes move only to make room at the front, when a
// frame would run past the buffer's end.
//
// The buffer starts at frameChunkMin and grows only when it is full and
// the frame needs more: by the frame's bytes so far, clamped to
// [frameChunkMin, frameChunk]. A peer that declares a huge frame and
// then stops sending costs one small chunk, not the declared size, and
// a real one costs O(n) copying.
type frameReader struct {
	r   io.Reader
	buf []byte
	off int
	err error // the first read error, reported once the buffered bytes run short
}

// next reads one frame, verifies its checksum and decodes the payload
// into dst's backing array when it is large enough (a fresh slice
// otherwise). It returns the message and the frame's bytes, which alias
// the buffer until the next call. io.EOF means the stream ended cleanly
// between frames; a frame cut short is io.ErrUnexpectedEOF, and a frame
// declaring more than maxFrameWords or failing its checksum is a
// *wire.Error. Nothing is sized from the frame until its bytes arrived
// and checked out.
func (f *frameReader) next(dst []float64) (Message, []byte, error) {
	if err := f.fill(frameHdrBytes); err != nil {
		return Message{}, nil, err
	}
	h := wire.NewReader("frame", f.buf[f.off:])
	words := h.U32("words")
	if words > maxFrameWords {
		h.Fail("words", "%d words exceed the %d-word frame limit", words, maxFrameWords)
		return Message{}, nil, h.Err()
	}
	n := frameHdrBytes + 8*int(words) + 4
	if err := f.fill(n); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Message{}, nil, err
	}
	frame := f.buf[f.off : f.off+n : f.off+n]
	f.off += n
	body, err := wire.CRC32.Open("frame", frame)
	if err != nil {
		return Message{}, nil, err
	}
	b := wire.NewReader("frame", body[4:])
	msg := Message{Tag: int(int64(b.U64("tag"))), Clock: b.F64("clock")}
	if cap(dst) < int(words) {
		dst = make([]float64, words)
	}
	msg.Data = dst[:words]
	b.F64s("payload", msg.Data)
	return msg, frame, b.Done()
}

// fill reads until at least n bytes past off are buffered. A read error
// is kept and returned once the buffered bytes cannot cover n: io.EOF
// with nothing buffered is a clean end, with a partial frame buffered
// it is io.ErrUnexpectedEOF.
func (f *frameReader) fill(n int) error {
	for len(f.buf)-f.off < n {
		if f.err != nil {
			if f.err == io.EOF && len(f.buf) > f.off {
				return io.ErrUnexpectedEOF
			}
			return f.err
		}
		if f.off+n > cap(f.buf) {
			f.makeRoom(n)
		}
		k, err := f.r.Read(f.buf[len(f.buf):cap(f.buf)])
		f.buf = f.buf[:len(f.buf)+k]
		f.err = err
	}
	return nil
}

// makeRoom moves the unconsumed bytes to the front of the buffer and,
// when the buffer is full short of the n bytes a frame needs, grows it
// by the chunk rule.
func (f *frameReader) makeRoom(n int) {
	if cap(f.buf) == 0 {
		f.buf = make([]byte, 0, frameChunkMin)
	}
	have := len(f.buf) - f.off
	if f.off > 0 {
		copy(f.buf, f.buf[f.off:])
		f.buf, f.off = f.buf[:have], 0
	}
	if have == cap(f.buf) {
		grown := make([]byte, have, have+min(n-have, frameChunk, max(have, frameChunkMin)))
		copy(grown, f.buf)
		f.buf = grown
	}
}

// Rank returns this endpoint's rank.
func (t *transportTCP) Rank() int { return t.rank }

// Size returns the world's rank count.
func (t *transportTCP) Size() int { return t.size }

// Send serializes msg into one frame and writes it under the send
// deadline. Serialization completes before return, so the caller may
// reuse the payload buffer.
func (t *transportTCP) Send(dst int, msg Message) error {
	if dst < 0 || dst >= t.size || dst == t.rank {
		return fmt.Errorf("mpi: rank %d: send to invalid rank %d of %d", t.rank, dst, t.size)
	}
	if len(msg.Data) > maxFrameWords {
		// Refused here, where the cause is known: the receiver could only
		// call it corruption, and a length of 2³² or more would wrap the
		// frame's uint32 into a short frame that desynchronizes the stream.
		return &PeerError{Rank: t.rank, Peer: dst, Op: "send", Tag: msg.Tag,
			Err: fmt.Errorf("payload of %d words exceeds the %d-word frame limit", len(msg.Data), maxFrameWords)}
	}
	conn := t.conns[dst]
	if need := frameHdrBytes + 8*len(msg.Data) + 4; cap(t.wbuf) < need {
		t.wbuf = make([]byte, 0, need)
	}
	t.wbuf = appendFrame(t.wbuf[:0], msg)
	// A failed deadline set means the connection is already dead (closed
	// or torn down); report it as the peer failure it is rather than
	// silently writing without pacing and blocking on a wedged socket.
	if err := conn.SetWriteDeadline(time.Now().Add(t.opt.SendTimeout)); err != nil { //saco:nolint nondet socket write deadline: I/O pacing only, never trajectory time
		return &PeerError{Rank: t.rank, Peer: dst, Op: "send", Tag: msg.Tag,
			Err: fmt.Errorf("set write deadline: %w", err)}
	}
	if _, err := conn.Write(t.wbuf); err != nil {
		if errors.Is(err, syscall.EPIPE) || errors.Is(err, syscall.ECONNRESET) {
			// The peer's end is closed: the event the simulated world
			// reports as ErrPeerGone. The socket error stays in the chain.
			err = fmt.Errorf("%w: %w", ErrPeerGone, err)
		}
		return &PeerError{Rank: t.rank, Peer: dst, Op: "send", Tag: msg.Tag, Err: err}
	}
	return nil
}

// reader pulls frames from peer p's connection into its inbox through
// one frameReader, the peer's one frame buffer, decoding each into a
// payload from p's free list. On any read error — a torn connection or
// a frame the frameReader refused — it records the sticky cause and
// closes the inbox, so every later Recv from p fails immediately instead
// of waiting out a timeout, and no refused frame is ever delivered.
func (t *transportTCP) reader(p int) {
	fr := frameReader{r: t.conns[p]}
	for {
		var dst []float64
		select {
		case dst = <-t.free[p]:
		default:
		}
		msg, _, err := fr.next(dst)
		if err != nil {
			if err == io.EOF {
				// The peer closed its end cleanly: it finished (or its
				// process exited) without sending what we may still expect.
				err = ErrPeerGone
			}
			t.mu.Lock()
			t.rerr[p] = err
			t.mu.Unlock()
			close(t.inbox[p]) // only this goroutine sends on the inbox
			return
		}
		select {
		case t.inbox[p] <- msg:
		case <-t.closed:
			return
		}
	}
}

func (t *transportTCP) readErr(p int) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.rerr[p] != nil {
		return t.rerr[p]
	}
	return ErrPeerGone
}

// Recv waits for peer src's next frame under the receive deadline. A
// torn connection, a vanished peer, a corrupt frame, a closed endpoint
// and a silent peer all surface as a *PeerError naming both ranks. The
// payload returned by the previous Recv from src goes back to src's
// free list first (the Transport contract: it is valid until then).
// Only a Recv that finds the inbox empty arms the endpoint's one timer;
// Go 1.23 timer semantics (go.mod says 1.24) guarantee that Reset
// discards any tick left from an earlier expiry.
func (t *transportTCP) Recv(src int) (Message, error) {
	if src < 0 || src >= t.size || src == t.rank {
		return Message{}, fmt.Errorf("mpi: rank %d: recv from invalid rank %d of %d", t.rank, src, t.size)
	}
	if d := t.held[src]; d != nil {
		t.held[src] = nil
		select {
		case t.free[src] <- d:
		default: // the list is full: drop it
		}
	}
	select {
	case msg, ok := <-t.inbox[src]:
		return t.deliver(src, msg, ok)
	default:
	}
	var timeout <-chan time.Time
	if t.opt.RecvTimeout > 0 {
		if t.timer == nil {
			t.timer = time.NewTimer(t.opt.RecvTimeout)
		} else {
			t.timer.Reset(t.opt.RecvTimeout)
		}
		defer t.timer.Stop()
		timeout = t.timer.C
	}
	select {
	case msg, ok := <-t.inbox[src]:
		return t.deliver(src, msg, ok)
	case <-t.closed:
		return Message{}, &PeerError{Rank: t.rank, Peer: src, Op: "recv", Err: net.ErrClosed}
	case <-timeout:
		return Message{}, &PeerError{Rank: t.rank, Peer: src, Op: "recv",
			Err: fmt.Errorf("no frame within %v: %w", t.opt.RecvTimeout, os.ErrDeadlineExceeded)}
	}
}

// deliver completes a Recv from src that took msg off the inbox (ok
// false: the reader closed it), holding the payload until the next Recv
// from src.
func (t *transportTCP) deliver(src int, msg Message, ok bool) (Message, error) {
	if !ok {
		return Message{}, &PeerError{Rank: t.rank, Peer: src, Op: "recv", Err: t.readErr(src)}
	}
	t.held[src] = msg.Data
	return msg, nil
}

// Close tears down the connection mesh. Idempotent; safe to call from a
// goroutine other than the rank's own (shutdown paths).
func (t *transportTCP) Close() error {
	t.closeOnce.Do(func() {
		close(t.closed)
		for _, conn := range t.conns {
			if conn != nil {
				conn.Close()
			}
		}
	})
	return nil
}

// bootTCPRoot builds rank 0's endpoint over an already-bound listener
// (RunWorld's ephemeral-port case; DialTCP binds its own from an address).
func bootTCPRoot(ctx context.Context, ln net.Listener, size int, opt *TCPOptions) (Transport, error) {
	o := opt.withDefaults()
	ctx, cancel := context.WithTimeout(ctx, o.RendezvousTimeout)
	defer cancel()
	t := newTransportTCP(0, size, o)
	err := t.acceptPeers(ctx, ln)
	ln.Close() // rendezvous is over either way
	if err != nil {
		t.Close() //saco:nolint commerr best-effort teardown of a half-built mesh; the bootstrap error is propagating
		return nil, fmt.Errorf("mpi: rank 0: tcp bootstrap: %w", err)
	}
	for p := 1; p < size; p++ {
		go t.reader(p)
	}
	return t, nil
}
