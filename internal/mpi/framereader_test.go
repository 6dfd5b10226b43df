package mpi

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"testing"

	"saco/internal/wire"
)

// chunkReader returns b in pieces: Read i returns at most sizes[i] bytes
// (the last size repeating), never more than the caller has room for.
type chunkReader struct {
	b     []byte
	sizes []int
	reads int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.b) == 0 {
		return 0, io.EOF
	}
	k := c.sizes[min(c.reads, len(c.sizes)-1)]
	c.reads++
	n := copy(p[:min(len(p), k)], c.b)
	c.b = c.b[n:]
	return n, nil
}

// testFrames returns n messages cycling through the payload sizes of
// the benchmark's frames (0, 1, 52 and 8 512 words), each with its own
// tag and clock and with NaN payloads, −0 and ±Inf among its values,
// and the stream of their sealed frames back to back.
func testFrames(n int) ([]Message, []byte) {
	sizes := []int{0, 1, 52, 8512}
	specials := []float64{math.NaN(), math.Float64frombits(0x7ff8_dead_beef_0001), math.Copysign(0, -1), math.Inf(-1), 5e-324}
	var msgs []Message
	var stream []byte
	for i := 0; i < n; i++ {
		data := make([]float64, sizes[i%len(sizes)])
		for j := range data {
			data[j] = float64(i*1000+j) * 0.5
			if j%7 == i%7 {
				data[j] = specials[(i+j)%len(specials)]
			}
		}
		msg := Message{Tag: i - 100, Clock: float64(i) / 3, Data: data}
		msgs = append(msgs, msg)
		stream = append(stream, appendFrame(nil, msg)...)
	}
	return msgs, stream
}

// sameMessage describes how got differs from want bit for bit, "" when
// it does not.
func sameMessage(got, want Message) string {
	if got.Tag != want.Tag || math.Float64bits(got.Clock) != math.Float64bits(want.Clock) || len(got.Data) != len(want.Data) {
		return fmt.Sprintf("tag %d clock %v %d words, want tag %d clock %v %d words",
			got.Tag, got.Clock, len(got.Data), want.Tag, want.Clock, len(want.Data))
	}
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			return fmt.Sprintf("word %d = %#x, want %#x", i, math.Float64bits(got.Data[i]), math.Float64bits(want.Data[i]))
		}
	}
	return ""
}

// readAll drains fr, decoding each frame into a recycled payload as the
// transport's Recv does, and checks every frame against want in
// order. It returns the error that ended the stream.
func readAll(t *testing.T, name string, fr *frameReader, want []Message) error {
	t.Helper()
	var dst []float64
	for i := 0; ; i++ {
		msg, _, err := fr.next(dst)
		if err != nil {
			if i != len(want) {
				t.Fatalf("%s: stream ended after %d of %d frames: %v", name, i, len(want), err)
			}
			return err
		}
		if i >= len(want) {
			t.Fatalf("%s: frame %d decoded past the %d sent", name, i, len(want))
		}
		if d := sameMessage(msg, want[i]); d != "" {
			t.Fatalf("%s: frame %d: %s", name, i, d)
		}
		dst = msg.Data
	}
}

// TestFrameReaderChunkings: 200 frames back to back decode bit for bit
// and in order, then end cleanly, whether the stream arrives 1, 3, 7 or
// 4 096 bytes per Read or as much as the buffer takes at once.
func TestFrameReaderChunkings(t *testing.T) {
	msgs, stream := testFrames(200)
	readers := map[string]func() io.Reader{
		"whole stream": func() io.Reader { return bytes.NewReader(stream) },
	}
	for _, k := range []int{1, 3, 7, 4096} {
		readers[fmt.Sprintf("%d bytes per read", k)] = func() io.Reader { return &chunkReader{b: stream, sizes: []int{k}} }
	}
	for name, r := range readers {
		fr := frameReader{r: r()}
		if err := readAll(t, name, &fr, msgs); err != io.EOF {
			t.Fatalf("%s: stream ended with %v, want io.EOF", name, err)
		}
	}
}

// capWatch records the capacity of a frameReader's buffer at every
// Read, so a test can count the buffer's reallocations.
type capWatch struct {
	r    io.Reader
	fr   *frameReader
	caps []int
}

func (c *capWatch) Read(p []byte) (int, error) {
	if n := cap(c.fr.buf); len(c.caps) == 0 || c.caps[len(c.caps)-1] != n {
		c.caps = append(c.caps, n)
	}
	return c.r.Read(p)
}

// TestFrameReaderGrowsByDoubling: a 16 MiB frame grows the buffer from
// its first 64 KiB by doubling, so it is reallocated at most
// ⌈log₂(16 MiB / 64 KiB)⌉ + 1 = 9 times (the last step reaches the
// frame's header and trailer), and decodes bit for bit — whether the
// stream arrives as fast as the buffer takes it or 1 MiB per Read.
func TestFrameReaderGrowsByDoubling(t *testing.T) {
	data := make([]float64, 2<<20) // 16 MiB of payload
	for i := range data {
		data[i] = float64(i) * 0.25
	}
	want := Message{Tag: 9, Clock: 1.5, Data: data}
	stream := appendFrame(nil, want)
	for _, k := range []int{len(stream), 1 << 20} {
		w := &capWatch{r: &chunkReader{b: stream, sizes: []int{k}}}
		fr := frameReader{r: w}
		w.fr = &fr
		msg, _, err := fr.next(nil)
		if err != nil {
			t.Fatalf("%d bytes per read: %v", k, err)
		}
		if d := sameMessage(msg, want); d != "" {
			t.Fatalf("%d bytes per read: %s", k, d)
		}
		if realloc := len(w.caps) - 1; realloc > 9 {
			t.Fatalf("%d bytes per read: the buffer was reallocated %d times (capacities %v), want at most 9", k, realloc, w.caps)
		}
		if last := w.caps[len(w.caps)-1]; last != len(stream) {
			t.Fatalf("%d bytes per read: buffer ends at %d bytes, want the frame's %d", k, last, len(stream))
		}
	}
}

// TestFrameReaderSplitAtEveryOffset: a 3-frame stream that arrives in
// two reads, split at every byte offset, decodes bit for bit.
func TestFrameReaderSplitAtEveryOffset(t *testing.T) {
	msgs, stream := testFrames(3)
	for cut := 0; cut <= len(stream); cut++ {
		fr := frameReader{r: &chunkReader{b: stream, sizes: []int{cut, len(stream)}}}
		if err := readAll(t, fmt.Sprintf("cut at %d", cut), &fr, msgs); err != io.EOF {
			t.Fatalf("cut at %d: stream ended with %v, want io.EOF", cut, err)
		}
	}
}

// TestFrameReaderCorruptAfterGood: a frame with a flipped payload bit
// after good ones ends the stream in a *wire.Error, and the good frames
// before it are delivered, read directly and through Recv.
func TestFrameReaderCorruptAfterGood(t *testing.T) {
	msgs, stream := testFrames(6)
	bad := appendFrame(nil, Message{Tag: 77, Data: []float64{1, 2, 3}})
	bad[frameHdrBytes+5] ^= 0x10
	stream = append(stream, bad...)
	stream = append(stream, appendFrame(nil, Message{Tag: 78})...) // never delivered
	for _, k := range []int{1, 7, 4096, len(stream)} {
		fr := frameReader{r: &chunkReader{b: stream, sizes: []int{k}}}
		err := readAll(t, fmt.Sprintf("%d bytes per read", k), &fr, msgs)
		var we *wire.Error
		if !errors.As(err, &we) || we.Field != "CRC-32" {
			t.Fatalf("%d bytes per read: stream ended with %v, want a CRC-32 *wire.Error", k, err)
		}
	}

	local, remote := net.Pipe()
	tr := newTransportTCP(0, 2, (&TCPOptions{}).withDefaults())
	tr.peers[1].conn = local
	defer tr.Close()
	tr.start(bg)
	go func() {
		remote.Write(stream) //nolint:errcheck // the receiver's error is what the test checks
		remote.Close()
	}()
	for i, want := range msgs {
		got, err := tr.Recv(1)
		if err != nil {
			t.Fatalf("Recv %d: %v", i, err)
		}
		if d := sameMessage(got, want); d != "" {
			t.Fatalf("Recv %d: %s", i, d)
		}
	}
	_, err := tr.Recv(1)
	var pe *PeerError
	var we *wire.Error
	if !errors.As(err, &pe) || pe.Peer != 1 || !errors.As(err, &we) || we.Field != "CRC-32" {
		t.Fatalf("Recv after the good frames: %v, want a *PeerError from rank 1 wrapping a CRC-32 *wire.Error", err)
	}
}
