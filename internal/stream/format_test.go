package stream

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"saco/internal/libsvm"
	"saco/internal/rng"
	"saco/internal/sparse"
	"saco/internal/wire"
)

// layouts are the two shard arrangements every round-trip property
// below must survive.
var layouts = []Layout{LayoutCSR, LayoutCSC}

// buildText ingests LIBSVM text into a fresh store and returns it.
func buildText(t *testing.T, text string, opt BuildOptions) *Dataset {
	t.Helper()
	ds, err := Build(strings.NewReader(text), t.TempDir(), opt)
	if err != nil {
		t.Fatalf("layout=%v: %v", opt.Layout, err)
	}
	return ds
}

// assertDatasetEquals checks a streamed store against the in-memory
// parse of the same text, entry by entry and bit by bit.
func assertDatasetEquals(t *testing.T, ds *Dataset, a *sparse.CSR, labels []float64) {
	t.Helper()
	if m, n := ds.Dims(); m != a.M || n != a.N {
		t.Fatalf("dims %dx%d, want %dx%d", m, n, a.M, a.N)
	}
	if ds.nnz != int64(a.NNZ()) {
		t.Fatalf("nnz %d, want %d", ds.nnz, a.NNZ())
	}
	for i, v := range labels {
		if ds.B[i] != v {
			t.Fatalf("label %d: %g != %g", i, ds.B[i], v)
		}
	}
	it := ds.Blocks()
	row := 0
	for it.Next() {
		blk := it.Block()
		for i := 0; i < blk.A.M; i++ {
			gi := blk.Row0 + i
			p0, p1 := blk.A.RowPtr[i], blk.A.RowPtr[i+1]
			q0, q1 := a.RowPtr[gi], a.RowPtr[gi+1]
			if p1-p0 != q1-q0 {
				t.Fatalf("row %d: %d entries, want %d", gi, p1-p0, q1-q0)
			}
			for k := 0; k < p1-p0; k++ {
				if blk.A.ColIdx[p0+k] != a.ColIdx[q0+k] || blk.A.Val[p0+k] != a.Val[q0+k] {
					t.Fatalf("row %d entry %d: (%d,%v) want (%d,%v)", gi, k,
						blk.A.ColIdx[p0+k], blk.A.Val[p0+k], a.ColIdx[q0+k], a.Val[q0+k])
				}
			}
		}
		row += blk.A.M
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if row != a.M {
		t.Fatalf("iterated %d rows, want %d", row, a.M)
	}
}

// TestShardRoundTripProperties: the edge shapes that historically break
// binary formats — empty rows, width declared by an explicit "n:0",
// single-row blocks, a block larger than the dataset, and columns at the
// far end of the declared width — survive ingest→read byte-identically
// in both layouts. The "-raw" in each subtest name is the one shard
// encoding (raw sections).
func TestShardRoundTripProperties(t *testing.T) {
	cases := []struct {
		name      string
		text      string
		features  int
		blockRows int
	}{
		{"empty-rows", "1\n-1 2:2\n1\n-1 1:-1 3:7\n1\n", 0, 2},
		{"width-declaring-n0", "1 1:1 50:0\n-1 2:2\n", 0, 3},
		{"single-row-blocks", "1 1:1 2:2\n-1 3:3\n1 2:-2 4:4\n", 0, 1},
		{"block-larger-than-dataset", "1 1:1\n-1 2:2\n1 3:3\n", 0, 10000},
		{"max-declared-column", "1 1:1 131072:5\n-1 131071:2\n", 1 << 17, 2},
		{"all-rows-empty", "1\n-1\n1\n", 4, 2},
		{"trailing-empty-columns", "1 1:1\n-1 2:2\n", 64, 1},
	}
	for _, tc := range cases {
		for _, layout := range layouts {
			t.Run(fmt.Sprintf("%s/%v-raw", tc.name, layout), func(t *testing.T) {
				a, labels, err := libsvm.Read(strings.NewReader(tc.text), tc.features)
				if err != nil {
					t.Fatal(err)
				}
				ds := buildText(t, tc.text, BuildOptions{
					BlockRows: tc.blockRows, Features: tc.features,
					Layout: layout,
				})
				if got := ds.Layout(); got != layout {
					t.Fatalf("layout %v, want %v", got, layout)
				}
				assertDatasetEquals(t, ds, a, labels)
				// Reopen from the manifest and check again: the round
				// trip must also survive the on-disk metadata.
				back, err := Open(ds.dir)
				if err != nil {
					t.Fatal(err)
				}
				if back.Layout() != layout {
					t.Fatalf("reopened layout %v", back.Layout())
				}
				assertDatasetEquals(t, back, a, labels)
			})
		}
	}
}

// TestMaxIndexColumnCSR: a column index at the shard format's 32-bit cap
// round-trips through the row-major layout (the column-major layout is
// for realistic widths — its column pointer is width-proportional).
func TestMaxIndexColumnCSR(t *testing.T) {
	text := fmt.Sprintf("1 1:1 %d:42\n", uint64(MaxFeatures))
	ds := buildText(t, text, BuildOptions{})
	if _, n := ds.Dims(); n != MaxFeatures {
		t.Fatalf("width %d, want %d", n, MaxFeatures)
	}
	it := ds.Blocks()
	if !it.Next() {
		t.Fatal(it.Err())
	}
	blk := it.Block()
	if got := blk.A.ColIdx[1]; got != MaxFeatures-1 {
		t.Fatalf("max column %d, want %d", got, MaxFeatures-1)
	}
	if blk.A.Val[1] != 42 {
		t.Fatalf("value %v", blk.A.Val[1])
	}
	// One past the cap must be rejected, not wrapped.
	if _, err := Build(strings.NewReader(fmt.Sprintf("1 %d:1\n", uint64(MaxFeatures)+1)),
		t.TempDir(), BuildOptions{}); err == nil {
		t.Fatal("index past the 32-bit cap was accepted")
	}
}

// oldWants is what every refusal of an older store file must say: which
// format it met and how to get off it.
func oldWants(magic string) []string {
	return []string{"version-" + magic[7:], magic, "delete the cache directory and re-ingest"}
}

// assertOldRefused checks the refusal of an older store file.
func assertOldRefused(t *testing.T, err error, magic string) {
	t.Helper()
	assertRefused(t, err, oldWants(magic))
}

// TestV1StoreRefused: the version-1 read paths are gone. A v1 manifest
// fails Open and a v1 shard under a current manifest fails its (copy)
// load with an error naming the format and the migration, never a
// generic "bad magic".
func TestV1StoreRefused(t *testing.T) {
	t.Run("manifest", func(t *testing.T) {
		dir := t.TempDir()
		data := append([]byte("SACOSMv1"), make([]byte, 48)...) // a complete, empty v1 header
		if err := os.WriteFile(filepath.Join(dir, manifestName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Open(dir)
		assertOldRefused(t, err, "SACOSMv1")
	})
	t.Run("shard/copy", func(t *testing.T) {
		ds := buildText(t, "1 1:1.5 4:-2\n-1 2:3\n", BuildOptions{})
		defer ds.Close()
		data := append([]byte("SACOSHv1"), make([]byte, 20)...) // rows = 0, nnz = 0, one row pointer
		if err := os.WriteFile(shardPath(ds.dir, 0), data, 0o644); err != nil {
			t.Fatal(err)
		}
		it := ds.Blocks()
		if it.Next() {
			t.Fatal("a version-1 shard was decoded")
		}
		assertOldRefused(t, it.Err(), "SACOSHv1")
	})
}

// Offsets of the codec byte: after the magic and the layout byte in a
// shard, after the 56-byte fixed header and the layout byte in a
// manifest.
const (
	shardCodecByte    = 9
	manifestCodecByte = 57
)

// withDeltaByte returns a copy of a sealed shard or manifest image with
// its codec byte set to 1 — the retired delta-varint codec — and the
// trailer recomputed, so only the codec check can refuse it.
func withDeltaByte(img []byte, off int) []byte {
	body := append([]byte(nil), img[:len(img)-4]...)
	body[off] = 1
	return wire.CRC32.Seal(body)
}

// TestV2StoreRefused: the retired encodings a store directory may still
// hold are refused by name, one row each — a version-2 store, which has
// no checksum trailer (its magic names it, like a version-1 one), and a
// v3 store written by the retired delta codec (its codec byte names
// it). In both rows a shard under a current manifest fails its load, a
// manifest fails Open, and the error says how to migrate.
func TestV2StoreRefused(t *testing.T) {
	deltaWants := []string{"codec", "delta-coded store: delete the cache directory and re-ingest"}
	for _, tc := range []struct {
		name                      string
		shard, manifest           func([]byte) []byte
		shardWants, manifestWants []string
	}{
		{
			name:          "v2",
			shard:         func(b []byte) []byte { copy(b, "SACOSHv2"); return b[:len(b)-4] },
			manifest:      func(b []byte) []byte { copy(b, "SACOSMv2"); return b[:len(b)-4] },
			shardWants:    oldWants("SACOSHv2"),
			manifestWants: oldWants("SACOSMv2"),
		},
		{
			name:          "v3-delta",
			shard:         func(b []byte) []byte { return withDeltaByte(b, shardCodecByte) },
			manifest:      func(b []byte) []byte { return withDeltaByte(b, manifestCodecByte) },
			shardWants:    deltaWants,
			manifestWants: deltaWants,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ds := buildText(t, "1 1:1.5 4:-2\n-1 2:3\n", BuildOptions{})
			defer ds.Close()
			for _, f := range []struct {
				path string
				edit func([]byte) []byte
			}{
				{shardPath(ds.dir, 0), tc.shard},
				{filepath.Join(ds.dir, manifestName), tc.manifest},
			} {
				data, err := os.ReadFile(f.path)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(f.path, f.edit(data), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			it := ds.Blocks()
			if it.Next() {
				t.Fatal("a retired shard was decoded")
			}
			assertRefused(t, it.Err(), tc.shardWants)
			_, err := Open(ds.dir)
			assertRefused(t, err, tc.manifestWants)
		})
	}
}

// assertRefused checks that err exists and mentions every wanted phrase.
func assertRefused(t *testing.T, err error, wants []string) {
	t.Helper()
	if err == nil {
		t.Fatalf("retired input accepted (want %q)", wants)
	}
	for _, want := range wants {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("refusal does not mention %q: %v", want, err)
		}
	}
}

// TestShardBitFlipRefused: one flipped bit in a shard's vals section —
// the last section, right before the trailer — fails the load with a
// checksum error naming the shard file, in both layouts, instead of
// decoding to silently different values.
func TestShardBitFlipRefused(t *testing.T) {
	for _, layout := range layouts {
		ds := buildText(t, "1 1:1.5 4:-2\n-1 2:3\n", BuildOptions{Layout: layout})
		path := shardPath(ds.dir, 0)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)-5] ^= 0x10
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		it := ds.Blocks()
		if it.Next() {
			t.Fatalf("%v: a shard with a flipped value bit was decoded", layout)
		}
		var we *wire.Error
		if err := it.Err(); !errors.As(err, &we) || we.Field != "CRC-32" || !strings.Contains(err.Error(), path) {
			t.Fatalf("%v: load error %v, want a checksum *wire.Error naming %s", layout, err, path)
		}
	}
}

// TestV1ShardOverflowingNNZRejected: a v1 shard whose nnz field sits near
// 2⁶⁴/12 once wrapped the v1 decoder's declared-size arithmetic; with
// that decoder gone the magic alone refuses it, before any header field
// is read.
func TestV1ShardOverflowingNNZRejected(t *testing.T) {
	k := 4
	data := make([]byte, 20+8+12*k)
	copy(data, "SACOSHv1")
	binary.LittleEndian.PutUint64(data[12:], 1<<62+uint64(k))
	_, err := decodeShard(data, 4)
	assertOldRefused(t, err, "SACOSHv1")
}

// urlLikeText synthesizes a dataset with the paper's url characteristics:
// wide, very sparse, heavily skewed column indices (a dense cluster of
// frequent low features plus a sparse tail) and binary ±1 values.
func urlLikeText(rows, rowNNZ int) string {
	r := rng.New(99)
	var sb strings.Builder
	for i := 0; i < rows; i++ {
		if i%2 == 0 {
			sb.WriteString("1")
		} else {
			sb.WriteString("-1")
		}
		col := 0
		for k := 0; k < rowNNZ; k++ {
			// Skewed gaps: mostly 1–8, occasionally a long jump into the
			// tail — url-style hostname/path token locality.
			gap := 1 + int(r.Uint64()%8)
			if r.Uint64()%64 == 0 {
				gap += int(r.Uint64() % 5000)
			}
			col += gap
			val := 1
			if r.Uint64()%4 == 0 {
				val = -1
			}
			fmt.Fprintf(&sb, " %d:%d", col, val)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// TestCacheCounters pins the cache accounting the parity harness leans
// on: hits, misses, evictions, and the no-double-read prefetch
// invariant (every miss costs exactly one disk load; banked prefetches
// are consumed, never discarded and re-read).
func TestCacheCounters(t *testing.T) {
	ds, _, _ := buildFixture(t, 640, 80, 64) // 10 shards, cache 2
	// Three sequential epochs through the block iterator.
	it := ds.Blocks()
	for epoch := 0; epoch < 3; epoch++ {
		for it.Next() {
		}
		if err := it.Err(); err != nil {
			t.Fatal(err)
		}
		it.Reset()
	}
	st := ds.CacheStats()
	// No double-reads: every disk load is consumed by exactly one miss,
	// except at most the final wrap-around prefetch still in flight when
	// the pass ends. A cache that discarded prefetched blocks and
	// re-read them would push Loads past Misses+1.
	if st.Loads > st.Misses+1 {
		t.Fatalf("prefetch double-read: %d loads for %d misses (%+v)", st.Loads, st.Misses, st)
	}
	// 10 shards, 3 epochs, budget 2: the consumed and prefetched blocks
	// are the only residents, so every access is a miss — the first
	// synchronous, all later ones satisfied by draining the wrapped
	// prefetch (that's the streaming design: disk reads overlap compute,
	// but nothing is read twice).
	if st.Misses != 30 || st.Hits != 0 {
		t.Fatalf("misses/hits %d/%d, want 30/0 (%+v)", st.Misses, st.Hits, st)
	}
	if st.PrefetchHits != 29 || st.Loads != 31 {
		t.Fatalf("prefetch accounting: %+v", st)
	}
	if st.Evictions != st.Misses-2 {
		t.Fatalf("evictions %d with budget 2 after %d misses (%+v)", st.Evictions, st.Misses, st)
	}
	if st.Conversions != 0 {
		t.Fatalf("block iteration converted %d shards (%+v)", st.Conversions, st)
	}

	// A warm re-read inside the budget is a pure hit: no loads.
	small, _, _ := buildFixture(t, 64, 20, 64) // one shard
	for i := 0; i < 3; i++ {
		it := small.Blocks()
		for it.Next() {
		}
		if err := it.Err(); err != nil {
			t.Fatal(err)
		}
		it.Reset()
	}
	if st := small.CacheStats(); st.Misses != 1 || st.Hits != 2 || st.Loads != 1 {
		t.Fatalf("single-shard epochs: %+v", st)
	}
}

// FuzzDecodeShard: arbitrary bytes must produce an error, never a panic,
// and a refusal must not allocate in proportion to a header field. The
// harness recomputes the trailer over the fuzzed image, so a mutation
// reaches the decoder past the checksum.
func FuzzDecodeShard(f *testing.F) {
	row := shardBlock{csr: &sparse.CSR{M: 2, N: 6, RowPtr: []int{0, 2, 3}, ColIdx: []int{1, 4, 5}, Val: []float64{1, -2, 0.5}}}
	col := shardBlock{csc: cscFromBlock([]int{0, 2, 3}, []int{1, 4, 5}, []float64{1, -2, 0.5})}
	for _, img := range [][]byte{encodeShard(LayoutCSR, row), encodeShard(LayoutCSC, col)} {
		f.Add(img)
		f.Add(withDeltaByte(img, shardCodecByte)) // the refused codec, one byte from a good image
	}
	f.Add([]byte("SACOSHv1"))
	f.Add([]byte("SACOSHv2"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) >= 4 {
			data = wire.CRC32.Seal(append([]byte(nil), data[:len(data)-4]...))
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		block, err := decodeShard(data, 6)
		runtime.ReadMemStats(&after)
		if err != nil {
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
				t.Fatalf("refusing a %d-byte shard allocated %d bytes: %v", len(data), grew, err)
			}
			return
		}
		if bytes.HasPrefix(data, []byte("SACOSHv1")) {
			t.Fatal("a version-1 shard was decoded")
		}
		if block.csr == nil && block.csc == nil {
			t.Fatal("no error and no block")
		}
	})
}
