package mpi

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"saco/internal/wire"
)

// recvRaw feeds raw bytes to a fresh endpoint as the stream from peer 1,
// closes the stream, and returns the endpoint's first Recv from it.
func recvRaw(raw []byte) (Message, error) {
	local, remote := net.Pipe()
	tr := newTransportTCP(0, 2, (&TCPOptions{}).withDefaults())
	tr.peers[1].conn = local
	defer tr.Close() // also unblocks the writer if Recv stopped reading
	tr.start(bg)
	go func() {
		remote.Write(raw) //nolint:errcheck // the receiver's error is what the tests check
		remote.Close()
	}()
	return tr.Recv(1)
}

// TestFrameBitFlipRefused flips every bit of a sealed frame in turn.
// Each flip must end in a *PeerError from rank 1 with no message
// delivered. A flip in the tag, clock, payload or trailer, or one that
// shortens the declared length, is refused by the CRC-32. A flip that
// raises the declared length asks for bytes the stream never carries: a
// length-prefixed stream cannot tell that from a slow peer, so the frame
// ends cut short (or over the word limit) — still typed, never delivered.
func TestFrameBitFlipRefused(t *testing.T) {
	sent := Message{Tag: -9, Clock: 1.25, Data: []float64{1.5, -2, math.Pi}}
	frame := appendFrame(nil, sent)
	got, err := recvRaw(frame)
	if err != nil || got.Tag != sent.Tag || got.Clock != sent.Clock || fmt.Sprint(got.Data) != fmt.Sprint(sent.Data) {
		t.Fatalf("clean frame: Recv = %+v, %v", got, err)
	}
	words := uint32(len(sent.Data))
	for bit := 0; bit < 8*len(frame); bit++ {
		bad := append([]byte(nil), frame...)
		bad[bit/8] ^= 1 << (bit % 8)
		msg, err := recvRaw(bad)
		var pe *PeerError
		if !errors.As(err, &pe) || pe.Peer != 1 || msg.Data != nil {
			t.Fatalf("bit %d: Recv = %+v, %v; want a *PeerError from rank 1 and no message", bit, msg, err)
		}
		var we *wire.Error
		errors.As(err, &we)
		if bit < 32 && words^1<<bit > words {
			if !errors.Is(err, io.ErrUnexpectedEOF) && (we == nil || we.Field != "words") {
				t.Fatalf("bit %d raised the length: %v, want a cut-short frame or the word limit", bit, err)
			}
		} else if we == nil || we.Field != "CRC-32" {
			t.Fatalf("bit %d: %v, want a CRC-32 *wire.Error", bit, err)
		}
	}
}

// TestTCPAllreduceAllocatesNothing: once warm, an Allreduce over a P=2
// TCP world makes no allocation anywhere in the process — not in Send,
// not in a writer goroutine, not in Recv — at the s=1 and s=16 message sizes
// of the dist-lasso workloads.
func TestTCPAllreduceAllocatesNothing(t *testing.T) {
	for _, words := range []int{52, 8512} {
		const runs = 100
		var allocs float64
		_, err := RunWorld(bg, 2, Machine{}, WorldOptions{TCP: &TCPOptions{}}, func(c *Comm) error {
			buf := make([]float64, words)
			for i := range buf {
				buf[i] = float64(c.Rank()*words + i)
			}
			for i := 0; i < 10; i++ {
				if err := c.Allreduce(Max, buf); err != nil {
					return err
				}
			}
			if c.Rank() != 0 {
				// AllocsPerRun calls its function once more than runs.
				for i := 0; i <= runs; i++ {
					if err := c.Allreduce(Max, buf); err != nil {
						return err
					}
				}
				return nil
			}
			var err error
			allocs = testing.AllocsPerRun(runs, func() {
				if e := c.Allreduce(Max, buf); e != nil && err == nil {
					err = e
				}
			})
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		if allocs != 0 {
			t.Errorf("%d words: %v allocations per Allreduce, want 0", words, allocs)
		}
	}
}

// TestBootstrapRefusesOtherFrameFormat: a build speaking another frame
// format is refused at the rendezvous, by whichever side learns it, with
// an error naming both formats. Builds before checksummed frames send no
// version field at all.
func TestBootstrapRefusesOtherFrameFormat(t *testing.T) {
	opt := &TCPOptions{RendezvousTimeout: 10 * time.Second}
	want := fmt.Sprintf("frame format 0, this build speaks %d", frameVersion)
	wait := func(what string, errc <-chan error) error {
		select {
		case err := <-errc:
			return err
		case <-time.After(30 * time.Second):
			t.Fatalf("%s hung", what)
			return nil
		}
	}

	// An old peer's hello reaches a new rank 0.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rootErr := make(chan error, 1)
	go func() {
		_, err := bootTCPRoot(bg, ln, 2, opt)
		rootErr <- err
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := writeCtl(conn, json.RawMessage(`{"rank":1,"size":2,"addr":"127.0.0.1:1","epoch":0}`)); err != nil {
		t.Fatal(err)
	}
	if err := wait("root bootstrap", rootErr); err == nil || !strings.Contains(err.Error(), "peer rank 1 speaks "+want) {
		t.Fatalf("root accepted a versionless hello: %v", err)
	}

	// An old rank 0's descriptor reaches a new peer.
	ln, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	helloVersion := make(chan int, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		var hello helloMsg
		if readCtl(conn, &hello) == nil {
			helloVersion <- hello.Version
			writeCtl(conn, json.RawMessage(`{"size":2,"addrs":["",""],"epoch":0}`)) //nolint:errcheck // the peer's error is what the test checks
		}
	}()
	peerErr := make(chan error, 1)
	go func() {
		_, err := DialTCP(bg, 1, 2, ln.Addr().String(), opt)
		peerErr <- err
	}()
	if err := wait("peer bootstrap", peerErr); err == nil || !strings.Contains(err.Error(), "world descriptor speaks "+want) {
		t.Fatalf("peer accepted a versionless descriptor: %v", err)
	}
	if v := <-helloVersion; v != frameVersion {
		t.Fatalf("peer's hello carried frame format %d, want %d", v, frameVersion)
	}
}

// FuzzReadFrame reads arbitrary bytes as a stream of frames through one
// frameReader, the way Recv reads a peer's stream. No input may panic; the
// stream ends in a clean end, a cut-short frame or a *wire.Error, and
// must not allocate in proportion to a length it refused; the accepted
// frames lie back to back from the start of the input, and each
// re-encodes through appendFrame to exactly itself. Byte 0 picks how
// many bytes each Read returns, so one input is also read in pieces.
func FuzzReadFrame(f *testing.F) {
	good := appendFrame(nil, Message{Tag: -9, Clock: 1.25, Data: []float64{1.5, math.NaN(), math.Copysign(0, -1)}})
	empty := appendFrame(nil, Message{Tag: 3}) // a barrier's empty payload
	corrupt := appendFrame(nil, Message{Tag: 1, Data: []float64{7}})
	corrupt[len(corrupt)-1] ^= 0x80
	for _, stream := range [][]byte{good, empty, corrupt, bytes.Join([][]byte{good, empty, good}, nil), bytes.Join([][]byte{empty, good, corrupt, good}, nil)} {
		f.Add(append([]byte{0}, stream...))
		f.Add(append([]byte{5}, stream...))
	}
	for _, words := range []uint32{maxFrameWords, maxFrameWords + 1} {
		w := wire.Writer{B: append([]byte{0}, good...)}
		w.U32(words)
		w.U64(5)
		w.F64(0)
		f.Add(w.B) // a good frame, then a header alone declaring the limit and one word over
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		var r io.Reader = bytes.NewReader(data[1:])
		if k := int(data[0]); k > 0 {
			r = &chunkReader{b: data[1:], sizes: []int{k}}
		}
		stream := data[1:]
		fr := frameReader{r: r}
		dst := make([]float64, 2) // reused when the frame fits, as a peer's payload buffer is
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		read := 0
		for {
			msg, frame, err := fr.next(dst)
			if err != nil {
				runtime.ReadMemStats(&after)
				var we *wire.Error
				if err != io.EOF && err != io.ErrUnexpectedEOF && !errors.As(err, &we) {
					t.Fatalf("refusal %v is neither a short read nor a *wire.Error", err)
				}
				if err == io.EOF && read != len(stream) {
					t.Fatalf("clean end after %d of %d bytes", read, len(stream))
				}
				if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20+4*uint64(len(stream)) {
					t.Fatalf("reading %d bytes allocated %d bytes", len(stream), grew)
				}
				return
			}
			if !bytes.Equal(frame, stream[read:read+len(frame)]) {
				t.Fatalf("accepted frame %x is not the input's bytes at %d", frame, read)
			}
			if re := appendFrame(nil, msg); !bytes.Equal(re, frame) {
				t.Fatalf("accepted frame %x re-encodes to %x", frame, re)
			}
			read += len(frame)
		}
	})
}
