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
	"sync/atomic"
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
	// SendTimeout bounds a write to a peer. A frame the socket does not
	// take at once is queued, and the queue leaves only as fast as the
	// peer's rank receives, so a queued write waits as long as a
	// receiver would: up to the larger of SendTimeout and RecvTimeout. A
	// peer that stops receiving fails the sender within that bound
	// instead of blocking it forever. Default 30s.
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

// queueTimeout bounds one queued write (see SendTimeout): a frame waits
// in the queue until the peer's rank calls Recv, which may lag as long
// as a receiver waits.
func (o *TCPOptions) queueTimeout() time.Duration { return max(o.SendTimeout, o.RecvTimeout) }

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
// the checksum covering everything before it. The rank reads its own
// frames: Recv takes the next frame of src's stream through src's one
// frame buffer (frameReader), on the rank's goroutine and under the
// receive deadline, verifies it and decodes it where it lies into src's
// one payload buffer. A torn connection, a corrupt frame or a silent peer
// ends src's stream in a sticky error, never a hang or a different
// trajectory. Send makes one non-blocking write; what the socket does not
// take joins dst's ordered queue, which a short-lived writer goroutine
// drains, so two ranks that both send frames larger than their socket
// buffers before they receive cannot deadlock. In steady state neither
// side allocates. Bootstrap: rank 0 listens at the rendezvous address,
// peers dial (with retry), exchange hellos, and rank 0 broadcasts the
// world descriptor; the hello connection is reused as the 0↔r data
// connection, and within the mesh the lower rank listens while the
// higher rank dials.
type transportTCP struct {
	rank, size int
	opt        TCPOptions
	epoch      int             // the world's agreed control-plane generation
	ctx        context.Context // cancelled: Close abandons queued frames
	peers      []tcpPeer       // by rank; the own rank's entry is unused
	wbuf       []byte          // send serialization buffer (single sender goroutine)
	waiting    atomic.Bool     // Recv is blocked on a read: a Close now is an abort
	writers    sync.WaitGroup
	closeOnce  sync.Once
	closeErr   error
}

// tcpPeer is one rank's link to peer p. The read side is the rank's
// alone; the write queue is shared with p's writer goroutine under mu.
type tcpPeer struct {
	conn net.Conn
	fr   frameReader // p's stream
	data []float64   // Recv's payload, valid until the next Recv from p
	rerr error       // sticky: what ended p's stream

	raw     syscall.RawConn       // nil when conn has no descriptor: every frame is queued
	writeFd func(fd uintptr) bool // writeOut, bound once
	out     []byte                // the frame writeOut writes
	wrote   int
	werr    error

	mu       sync.Mutex
	queue    []byte // bytes the socket has not taken yet, in send order
	flushing bool   // a writer goroutine owns the queue
	serr     error  // sticky: the queued write that failed, or the endpoint closed
	lost     error  // serr when it is a queued write's failure no Send has reported
}

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
	return &transportTCP{
		rank:  rank,
		size:  size,
		opt:   o,
		epoch: max(o.Epoch, 0),
		ctx:   context.Background(),
		peers: make([]tcpPeer, size),
	}
}

// start readies the link to every connected peer once the bootstrap has
// made the mesh; ctx is the caller's, whose cancellation makes Close an
// abort.
func (t *transportTCP) start(ctx context.Context) {
	t.ctx = ctx
	for q := range t.peers {
		p := &t.peers[q]
		if p.conn == nil {
			continue
		}
		p.fr.r = p.conn
		p.writeFd = p.writeOut
		// Without a descriptor (a failed SyscallConn, a net.Pipe) raw
		// stays nil and every frame goes through the writer goroutine.
		if sc, ok := p.conn.(syscall.Conn); ok {
			p.raw, _ = sc.SyscallConn()
		}
	}
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
	parent := ctx
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
	t.start(parent)
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
		if hello.Rank <= 0 || hello.Rank >= t.size || t.peers[hello.Rank].conn != nil {
			conn.Close()
			return fmt.Errorf("invalid or duplicate hello from rank %d", hello.Rank)
		}
		if hello.Epoch > t.epoch {
			t.epoch = hello.Epoch
		}
		t.peers[hello.Rank].conn = conn
		addrs[hello.Rank] = hello.Addr
		have++
	}
	world := worldMsg{Size: t.size, Addrs: addrs, Epoch: t.epoch, Version: frameVersion}
	for p := 1; p < t.size; p++ {
		if err := writeCtl(t.peers[p].conn, world); err != nil {
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
	t.peers[0].conn = root
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
		t.peers[q].conn = conn
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
		if ident.Rank <= t.rank || ident.Rank >= t.size || t.peers[ident.Rank].conn != nil {
			conn.Close()
			return fmt.Errorf("invalid or duplicate mesh ident from rank %d", ident.Rank)
		}
		t.peers[ident.Rank].conn = conn
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
	// bytes arrive: by the bytes so far, at least frameChunkMin at a
	// time, so a header alone cannot make a reader allocate more than
	// frameChunkMin (see frameReader).
	frameChunkMin = 64 << 10
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
// the frame needs more: by the frame's bytes so far (at least
// frameChunkMin), never past the frame's declared end. A peer that
// declares a huge frame and then stops sending costs one small chunk,
// not the declared size, and a real one doubles the buffer, so its
// copying is O(n).
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

// whole reports whether a whole frame is buffered, so that next returns
// it without reading.
func (f *frameReader) whole() bool {
	b := f.buf[f.off:]
	if len(b) < frameHdrBytes {
		return false
	}
	h := wire.NewReader("frame", b)
	words := h.U32("words")
	return words <= maxFrameWords && len(b) >= frameHdrBytes+8*int(words)+4
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
		grown := make([]byte, have, have+min(n-have, max(have, frameChunkMin)))
		copy(grown, f.buf)
		f.buf = grown
	}
}

// Rank returns this endpoint's rank.
func (t *transportTCP) Rank() int { return t.rank }

// Size returns the world's rank count.
func (t *transportTCP) Size() int { return t.size }

// Send serializes msg into one frame and makes one non-blocking write.
// What the socket does not take is copied to dst's queue, which a writer
// goroutine drains under queueTimeout; while the queue is non-empty
// later frames join it, so frames leave in send order. Either way the
// caller may reuse the payload buffer on return. A queued write that
// failed fails every later Send to dst.
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
	if need := frameHdrBytes + 8*len(msg.Data) + 4; cap(t.wbuf) < need {
		t.wbuf = make([]byte, 0, need)
	}
	t.wbuf = appendFrame(t.wbuf[:0], msg)
	if err := t.send(&t.peers[dst], t.wbuf); err != nil {
		if errors.Is(err, syscall.EPIPE) || errors.Is(err, syscall.ECONNRESET) {
			// The peer's end is closed: the event the simulated world
			// reports as ErrPeerGone. The socket error stays in the chain.
			err = fmt.Errorf("%w: %w", ErrPeerGone, err)
		}
		return &PeerError{Rank: t.rank, Peer: dst, Op: "send", Tag: msg.Tag, Err: err}
	}
	return nil
}

// send writes frame to p at once, or queues what the socket does not
// take and starts p's writer.
func (t *transportTCP) send(p *tcpPeer, frame []byte) error {
	p.mu.Lock()
	err, queued := p.serr, p.flushing
	p.lost = nil
	if err == nil && queued {
		p.queue = append(p.queue, frame...)
	}
	p.mu.Unlock()
	if err != nil || queued {
		return err
	}
	p.out, p.wrote = frame, 0
	if p.raw != nil {
		if err := p.raw.Write(p.writeFd); err != nil {
			return err
		}
		if p.werr != nil {
			return p.werr
		}
	}
	if p.wrote == len(frame) {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.serr != nil { // closed from another goroutine meanwhile
		return p.serr
	}
	p.queue = append(p.queue[:0], frame[p.wrote:]...)
	p.flushing = true
	t.writers.Add(1)
	go t.flush(p)
	return nil
}

// writeOut is send's RawConn callback, bound once: it writes what the
// socket takes of out now and never waits for room.
func (p *tcpPeer) writeOut(fd uintptr) bool {
	n, err := writeNow(fd, p.out[p.wrote:])
	p.wrote += n
	p.werr = err
	return true
}

// flush is p's writer goroutine: it writes p's queue out, each write
// under queueTimeout, taking the bytes Sends append meanwhile, until the
// queue is empty or a write fails, which becomes p's sticky send error.
func (t *transportTCP) flush(p *tcpPeer) {
	defer t.writers.Done()
	var spare []byte
	for {
		p.mu.Lock()
		buf := p.queue
		if len(buf) == 0 {
			// Send's raw write must not meet a deadline this goroutine set.
			if err := p.conn.SetWriteDeadline(time.Time{}); err != nil {
				p.serr = err
			}
			p.flushing = false
			p.mu.Unlock()
			break
		}
		p.queue = spare[:0]
		p.mu.Unlock()
		err := p.conn.SetWriteDeadline(time.Now().Add(t.opt.queueTimeout())) //saco:nolint nondet socket write deadline: I/O pacing only, never trajectory time
		if err == nil {
			_, err = p.conn.Write(buf)
		}
		if err != nil {
			p.mu.Lock()
			p.serr, p.lost, p.queue, p.flushing = err, err, nil, false
			p.mu.Unlock()
			break
		}
		spare = buf
	}
}

// Recv returns peer src's next frame. A frame already whole in src's
// buffer is delivered without a read; otherwise the rank reads src's
// stream itself under the receive deadline. The payload is decoded into
// src's one buffer, valid until the next Recv from src (the Transport
// contract). Whatever ends the stream — a torn connection, a vanished
// peer, a corrupt frame, a closed endpoint, a silent peer — is sticky
// and surfaces as a *PeerError naming both ranks.
func (t *transportTCP) Recv(src int) (Message, error) {
	if src < 0 || src >= t.size || src == t.rank {
		return Message{}, fmt.Errorf("mpi: rank %d: recv from invalid rank %d of %d", t.rank, src, t.size)
	}
	p := &t.peers[src]
	if p.rerr == nil {
		msg, err := t.next(p)
		if err == nil {
			return msg, nil
		}
		switch {
		case err == io.EOF:
			// The peer closed its end cleanly: it finished (or its
			// process exited) without sending what we still expect.
			err = ErrPeerGone
		case errors.Is(err, syscall.ECONNRESET):
			// The peer closed with bytes of ours unread, so its kernel
			// reset the connection instead of ending it: the same
			// vanished peer. The socket error stays in the chain.
			err = fmt.Errorf("%w: %w", ErrPeerGone, err)
		case errors.Is(err, os.ErrDeadlineExceeded):
			err = fmt.Errorf("no frame within %v: %w", t.opt.RecvTimeout, err)
		}
		p.rerr = err
	}
	return Message{}, &PeerError{Rank: t.rank, Peer: src, Op: "recv", Err: p.rerr}
}

// next reads p's next frame into p's payload buffer, arming the receive
// deadline only when the frame is not buffered whole.
func (t *transportTCP) next(p *tcpPeer) (Message, error) {
	if !p.fr.whole() {
		if t.opt.RecvTimeout > 0 {
			if err := p.conn.SetReadDeadline(time.Now().Add(t.opt.RecvTimeout)); err != nil { //saco:nolint nondet socket read deadline: I/O pacing only, never trajectory time
				return Message{}, err
			}
		}
		t.waiting.Store(true)
		defer t.waiting.Store(false)
	}
	msg, _, err := p.fr.next(p.data)
	if err == nil {
		p.data = msg.Data
	}
	return msg, err
}

// Close ends the endpoint. Sends after it fail. A rank that ends
// normally first lets its writer goroutines drain what its Sends queued,
// each write bounded by its own deadline (see SendTimeout), so a Send
// that returned nil is delivered unless the peer is gone; a queued write
// that failed is Close's error. An abort does not wait: when the
// caller's context is cancelled, or while the rank is blocked in Recv (a
// supervisor closing from another goroutine), the connections close at
// once, failing the queued writes and a Recv blocked on one. Close
// returns once every writer has exited. Idempotent; safe to call from a
// goroutine other than the rank's own.
func (t *transportTCP) Close() error {
	t.closeOnce.Do(func() {
		abort := t.ctx.Err() != nil || t.waiting.Load()
		for q := range t.peers {
			p := &t.peers[q]
			p.mu.Lock()
			if p.serr == nil {
				p.serr = net.ErrClosed // no Send queues or starts a writer now
			}
			p.mu.Unlock()
			if abort && p.conn != nil {
				p.conn.Close()
			}
		}
		t.writers.Wait()
		for q := range t.peers {
			p := &t.peers[q]
			p.mu.Lock()
			lost := p.lost
			p.mu.Unlock()
			if lost != nil && !abort && t.closeErr == nil {
				t.closeErr = &PeerError{Rank: t.rank, Peer: q, Op: "send", Err: lost}
			}
			if !abort && p.conn != nil {
				p.conn.Close()
			}
		}
	})
	return t.closeErr
}

// bootTCPRoot builds rank 0's endpoint over an already-bound listener
// (RunWorld's ephemeral-port case; DialTCP binds its own from an address).
func bootTCPRoot(ctx context.Context, ln net.Listener, size int, opt *TCPOptions) (Transport, error) {
	o := opt.withDefaults()
	boot, cancel := context.WithTimeout(ctx, o.RendezvousTimeout)
	defer cancel()
	t := newTransportTCP(0, size, o)
	err := t.acceptPeers(boot, ln)
	ln.Close() // rendezvous is over either way
	if err != nil {
		t.Close() //saco:nolint commerr best-effort teardown of a half-built mesh; the bootstrap error is propagating
		return nil, fmt.Errorf("mpi: rank 0: tcp bootstrap: %w", err)
	}
	t.start(ctx)
	return t, nil
}
