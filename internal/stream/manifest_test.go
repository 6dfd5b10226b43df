package stream

import (
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// realManifest builds a 5-row store in 2-row shards (so the shard table
// is 2, 2, 1) and returns its directory and manifest bytes.
func realManifest(t testing.TB) (string, []byte) {
	t.Helper()
	dir := t.TempDir()
	ds, err := Build(strings.NewReader("1 1:1\n-1 2:2\n1 3:3\n-1 1:4\n1 2:5\n"), dir, BuildOptions{BlockRows: 2})
	if err != nil {
		t.Fatal(err)
	}
	ds.Close()
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	return dir, data
}

// TestCorruptManifestRefused: manifest.bin is outside input. Every
// header lie below once drove an allocation, a division or an index from
// the lie itself; each must now come back from Open as a *manifestError
// without panicking and without allocating in proportion to the lie.
func TestCorruptManifestRefused(t *testing.T) {
	dir, good := realManifest(t)
	le := binary.LittleEndian
	cases := []struct {
		name   string
		mutate func(b []byte) []byte
	}{
		{"oversized nshards", func(b []byte) []byte { le.PutUint32(b[36:], 0xFFFFFFFF); return b }},
		{"oversized m", func(b []byte) []byte { le.PutUint64(b[8:], 1<<62); return b }},
		{"m past the int range", func(b []byte) []byte { le.PutUint64(b[8:], 1<<63+5); return b }},
		{"blockRows = 0", func(b []byte) []byte { le.PutUint32(b[32:], 0); return b }},
		{"uneven shard table", func(b []byte) []byte {
			// 2,2,1 → 1,2,2: still sums to m, but row 1 no longer lives
			// where locate's division says.
			le.PutUint32(b[manifestHeader:], 1)
			le.PutUint32(b[manifestHeader+24:], 2)
			return b
		}},
		{"empty shard", func(b []byte) []byte { le.PutUint32(b[manifestHeader+24:], 0); return b }},
		{"truncated labels", func(b []byte) []byte { return b[:len(b)-8] }},
		{"trailing bytes", func(b []byte) []byte { return append(b, 0) }},
		{"truncated header", func(b []byte) []byte { return b[:40] }},
		{"oversized n", func(b []byte) []byte { le.PutUint64(b[16:], MaxFeatures+1); return b }},
		{"unknown layout", func(b []byte) []byte { b[56] = 7; return b }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bad := tc.mutate(append([]byte(nil), good...))
			if err := os.WriteFile(filepath.Join(dir, manifestName), bad, 0o644); err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			ds, err := Open(dir)
			runtime.ReadMemStats(&after)
			var me *manifestError
			if !errors.As(err, &me) {
				t.Fatalf("Open returned (%v, %v), want a *manifestError", ds, err)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
				t.Fatalf("refusing a %d-byte manifest allocated %d bytes", len(bad), grew)
			}
		})
	}
	// The unmodified image still opens: the table above refuses lies, not
	// manifests.
	if err := os.WriteFile(filepath.Join(dir, manifestName), good, 0o644); err != nil {
		t.Fatal(err)
	}
	ds, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	if si, local := ds.locate(4); si != 2 || local != 0 {
		t.Fatalf("locate(4) = (%d, %d), want (2, 0)", si, local)
	}
}

// failingReader yields its text and then an I/O error instead of EOF:
// an ingest that dies after spilling shards, before the manifest.
type failingReader struct{ r io.Reader }

func (f failingReader) Read(p []byte) (int, error) {
	n, err := f.r.Read(p)
	if err == io.EOF {
		err = errors.New("source went away")
	}
	return n, err
}

// TestInterruptedBuildLeavesNoManifest: the manifest is the last file
// published and goes through WriteFileAtomic, so a build that stops after
// writing shards leaves a directory Open refuses — no manifest.bin, torn
// or otherwise — and no temp file under a final name.
func TestInterruptedBuildLeavesNoManifest(t *testing.T) {
	dir := t.TempDir()
	_, err := Build(failingReader{strings.NewReader("1 1:1\n-1 2:2\n1 3:3\n")}, dir, BuildOptions{BlockRows: 1})
	if err == nil {
		t.Fatal("build over a failing source succeeded")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	shards := 0
	for _, e := range entries {
		if e.Name() == manifestName || strings.Contains(e.Name(), ".tmp") {
			t.Fatalf("interrupted build left %s behind", e.Name())
		}
		shards++
	}
	if shards == 0 {
		t.Fatal("fixture wrote no shard before failing, so it interrupts nothing")
	}
	if _, err := Open(dir); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("Open of an unfinished store: %v, want not-exist", err)
	}
}

// FuzzReadManifest: no manifest image may panic the decoder, and one it
// accepts must describe a store locate can divide.
func FuzzReadManifest(f *testing.F) {
	_, good := realManifest(f)
	f.Add(good)
	f.Add(good[:manifestHeader])
	f.Add([]byte("SACOSMv1"))
	f.Add([]byte("SACOSMv2"))
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := decodeManifest("fuzz", data)
		if err != nil {
			return
		}
		if len(d.B) != d.m || d.blockRows < 1 {
			t.Fatalf("accepted manifest: %d labels for %d rows, blockRows %d", len(d.B), d.m, d.blockRows)
		}
		for i := 0; i < d.m; i++ {
			si, local := d.locate(i)
			if local < 0 || local >= d.shards[si].Rows {
				t.Fatalf("row %d located at shard %d row %d of %d", i, si, local, d.shards[si].Rows)
			}
		}
	})
}
