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

	"saco/internal/core"
	"saco/internal/datagen"
	"saco/internal/libsvm"
	"saco/internal/rng"
	"saco/internal/sparse"
	"saco/internal/wire"
)

// layoutCodecCases is the full format cross-product every round-trip
// property below must survive.
var layoutCodecCases = []struct {
	layout Layout
	codec  Codec
}{
	{LayoutCSR, CodecRaw},
	{LayoutCSR, CodecDelta},
	{LayoutCSC, CodecRaw},
	{LayoutCSC, CodecDelta},
}

// buildText ingests LIBSVM text into a fresh store and returns it.
func buildText(t *testing.T, text string, opt BuildOptions) *Dataset {
	t.Helper()
	ds, err := Build(strings.NewReader(text), t.TempDir(), opt)
	if err != nil {
		t.Fatalf("layout=%v codec=%v: %v", opt.Layout, opt.Codec, err)
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
	if ds.NNZ() != int64(a.NNZ()) {
		t.Fatalf("nnz %d, want %d", ds.NNZ(), a.NNZ())
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
// in every layout × codec.
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
		for _, lc := range layoutCodecCases {
			t.Run(fmt.Sprintf("%s/%v-%v", tc.name, lc.layout, lc.codec), func(t *testing.T) {
				a, labels, err := libsvm.Read(strings.NewReader(tc.text), tc.features)
				if err != nil {
					t.Fatal(err)
				}
				ds := buildText(t, tc.text, BuildOptions{
					BlockRows: tc.blockRows, Features: tc.features,
					Layout: lc.layout, Codec: lc.codec,
				})
				if got := ds.Layout(); got != lc.layout {
					t.Fatalf("layout %v, want %v", got, lc.layout)
				}
				if got := ds.Codec(); got != lc.codec {
					t.Fatalf("codec %v, want %v", got, lc.codec)
				}
				assertDatasetEquals(t, ds, a, labels)
				// Reopen from the manifest and check again: the round
				// trip must also survive the on-disk metadata.
				back, err := Open(ds.Dir())
				if err != nil {
					t.Fatal(err)
				}
				if back.Layout() != lc.layout || back.Codec() != lc.codec {
					t.Fatalf("reopened layout/codec %v/%v", back.Layout(), back.Codec())
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
	for _, codec := range []Codec{CodecRaw, CodecDelta} {
		ds := buildText(t, text, BuildOptions{Codec: codec})
		if _, n := ds.Dims(); n != MaxFeatures {
			t.Fatalf("codec %v: width %d, want %d", codec, n, MaxFeatures)
		}
		it := ds.Blocks()
		if !it.Next() {
			t.Fatal(it.Err())
		}
		blk := it.Block()
		if got := blk.A.ColIdx[1]; got != MaxFeatures-1 {
			t.Fatalf("codec %v: max column %d, want %d", codec, got, MaxFeatures-1)
		}
		if blk.A.Val[1] != 42 {
			t.Fatalf("codec %v: value %v", codec, blk.A.Val[1])
		}
	}
	// One past the cap must be rejected, not wrapped.
	if _, err := Build(strings.NewReader(fmt.Sprintf("1 %d:1\n", uint64(MaxFeatures)+1)),
		t.TempDir(), BuildOptions{}); err == nil {
		t.Fatal("index past the 32-bit cap was accepted")
	}
}

// assertOldRefused checks what every refusal of an older store file
// must say: which format it met and how to get off it.
func assertOldRefused(t *testing.T, err error, magic string) {
	t.Helper()
	if err == nil {
		t.Fatalf("%s input accepted", magic)
	}
	for _, want := range []string{"version-" + magic[7:], magic, "delete the cache directory and re-ingest"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("%s refusal does not mention %q: %v", magic, want, err)
		}
	}
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
		if err := os.WriteFile(shardPath(ds.Dir(), 0), data, 0o644); err != nil {
			t.Fatal(err)
		}
		it := ds.Blocks()
		if it.Next() {
			t.Fatal("a version-1 shard was decoded")
		}
		assertOldRefused(t, it.Err(), "SACOSHv1")
	})
}

// TestV2StoreRefused: a version-2 store, which has no checksum trailer,
// is refused by name like a version-1 one — a v2 shard under a current
// manifest fails its load, and a v2 manifest fails Open.
func TestV2StoreRefused(t *testing.T) {
	ds := buildText(t, "1 1:1.5 4:-2\n-1 2:3\n", BuildOptions{})
	defer ds.Close()
	for _, f := range []struct{ path, magic string }{
		{shardPath(ds.Dir(), 0), "SACOSHv2"},
		{filepath.Join(ds.Dir(), manifestName), "SACOSMv2"},
	} {
		data, err := os.ReadFile(f.path)
		if err != nil {
			t.Fatal(err)
		}
		copy(data, f.magic)
		if err := os.WriteFile(f.path, data[:len(data)-4], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	it := ds.Blocks()
	if it.Next() {
		t.Fatal("a version-2 shard was decoded")
	}
	assertOldRefused(t, it.Err(), "SACOSHv2")
	_, err := Open(ds.Dir())
	assertOldRefused(t, err, "SACOSMv2")
}

// TestShardBitFlipRefused: one flipped bit in a shard's vals section —
// the last section, right before the trailer — fails the load with a
// checksum error naming the shard file, in every layout × codec, instead
// of decoding to silently different values.
func TestShardBitFlipRefused(t *testing.T) {
	for _, lc := range layoutCodecCases {
		ds := buildText(t, "1 1:1.5 4:-2\n-1 2:3\n", BuildOptions{Layout: lc.layout, Codec: lc.codec})
		path := shardPath(ds.Dir(), 0)
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
			t.Fatalf("%v/%v: a shard with a flipped value bit was decoded", lc.layout, lc.codec)
		}
		var we *wire.Error
		if err := it.Err(); !errors.As(err, &we) || we.Field != "CRC-32" || !strings.Contains(err.Error(), path) {
			t.Fatalf("%v/%v: load error %v, want a checksum *wire.Error naming %s", lc.layout, lc.codec, err, path)
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
// frequent low features plus a sparse tail) and binary ±1 values. This
// is the regime the delta codec is for.
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

// TestDeltaCodecShrinksSkewedShards is the bench-backed size guarantee:
// on a url-like skewed index distribution the delta codec must cut total
// shard bytes by at least 1.8× in both layouts (the ROADMAP's "roughly
// halve shard bytes" item). BenchmarkShardEncode reports the same ratio
// as a metric.
func TestDeltaCodecShrinksSkewedShards(t *testing.T) {
	text := urlLikeText(512, 60)
	for _, layout := range []Layout{LayoutCSR, LayoutCSC} {
		raw := buildText(t, text, BuildOptions{BlockRows: 128, Layout: layout, Codec: CodecRaw})
		delta := buildText(t, text, BuildOptions{BlockRows: 128, Layout: layout, Codec: CodecDelta})
		rawBytes, err := raw.ShardBytes()
		if err != nil {
			t.Fatal(err)
		}
		deltaBytes, err := delta.ShardBytes()
		if err != nil {
			t.Fatal(err)
		}
		ratio := float64(rawBytes) / float64(deltaBytes)
		t.Logf("layout=%v raw=%d delta=%d ratio=%.2fx", layout, rawBytes, deltaBytes, ratio)
		if ratio < 1.8 {
			t.Fatalf("layout=%v: delta shards only %.2fx smaller (raw %d, delta %d), want >= 1.8x",
				layout, ratio, rawBytes, deltaBytes)
		}
		// Compression must not cost correctness: both stores decode to
		// identical blocks.
		a, labels, err := libsvm.Read(strings.NewReader(text), 0)
		if err != nil {
			t.Fatal(err)
		}
		assertDatasetEquals(t, delta, a, labels)
	}
}

// BenchmarkShardEncode measures encode throughput and reports the
// delta:raw size ratio on the url-like distribution as a metric, so the
// size guarantee is visible in bench output too.
func BenchmarkShardEncode(b *testing.B) {
	a, _, err := libsvm.Read(strings.NewReader(urlLikeText(512, 60)), 0)
	if err != nil {
		b.Fatal(err)
	}
	block := shardBlock{csr: a}
	rawLen := len(encodeShard(LayoutCSR, CodecRaw, block))
	deltaLen := len(encodeShard(LayoutCSR, CodecDelta, block))
	b.ReportMetric(float64(rawLen)/float64(deltaLen), "raw/delta-bytes")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := encodeShard(LayoutCSR, CodecDelta, block); len(out) != deltaLen {
			b.Fatal("nondeterministic encode")
		}
	}
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

// TestColStreamZeroConversions is the tentpole acceptance counter: a
// full streamed Lasso solve over a LayoutCSC store must never
// materialize a CSR→CSC conversion, while the same solve over a
// LayoutCSR store converts every shard load.
func TestColStreamZeroConversions(t *testing.T) {
	d := fixtureText(t, 640, 80)
	opt := core.LassoOptions{Lambda: 0.4, Iters: 60, S: 4, BlockSize: 2, Seed: 7}

	csc := buildText(t, d, BuildOptions{BlockRows: 64, Layout: LayoutCSC})
	if _, err := core.Lasso(csc.Cols(), csc.B, opt); err != nil {
		t.Fatal(err)
	}
	if st := csc.CacheStats(); st.Conversions != 0 {
		t.Fatalf("CSC store: %d conversions during a column solve (%+v)", st.Conversions, st)
	}

	csr := buildText(t, d, BuildOptions{BlockRows: 64, Layout: LayoutCSR})
	if _, err := core.Lasso(csr.Cols(), csr.B, opt); err != nil {
		t.Fatal(err)
	}
	if st := csr.CacheStats(); st.Conversions == 0 {
		t.Fatalf("CSR store: column solve reported no conversions (%+v)", st)
	}
}

// fixtureText renders a synthetic regression fixture as LIBSVM text.
func fixtureText(t *testing.T, m, n int) string {
	t.Helper()
	d := datagen.Regression("fmtfix", 7, m, n, 0.1, 8, 0.1)
	var buf bytes.Buffer
	if err := libsvm.Write(&buf, d.AsCSR(), d.B); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestConvertStore: a one-pass conversion between every layout × codec
// pair preserves the data bit for bit, carries the source stamp, and —
// for CSR→CSC — writes shard files byte-identical to an at-ingest CSC
// build (the transpose is the same transpose).
func TestConvertStore(t *testing.T) {
	text := urlLikeText(200, 30)
	a, labels, err := libsvm.Read(strings.NewReader(text), 0)
	if err != nil {
		t.Fatal(err)
	}
	src := buildText(t, text, BuildOptions{BlockRows: 32})
	for _, lc := range layoutCodecCases {
		dst := filepath.Join(t.TempDir(), "conv")
		conv, err := Convert(src, dst, lc.layout, lc.codec)
		if err != nil {
			t.Fatal(err)
		}
		if conv.Layout() != lc.layout || conv.Codec() != lc.codec {
			t.Fatalf("converted store is %v/%v", conv.Layout(), conv.Codec())
		}
		assertDatasetEquals(t, conv, a, labels)
		if conv.BlockRows() != src.BlockRows() || conv.NumShards() != src.NumShards() {
			t.Fatalf("conversion changed the shard shape")
		}

		ingest := buildText(t, text, BuildOptions{BlockRows: 32, Layout: lc.layout, Codec: lc.codec})
		for i := 0; i < src.NumShards(); i++ {
			cb, err := os.ReadFile(shardPath(conv.Dir(), i))
			if err != nil {
				t.Fatal(err)
			}
			ib, err := os.ReadFile(shardPath(ingest.Dir(), i))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(cb, ib) {
				t.Fatalf("%v/%v shard %d: converted and at-ingest bytes differ", lc.layout, lc.codec, i)
			}
		}
	}
	if _, err := Convert(src, src.Dir(), LayoutCSC, CodecRaw); err == nil {
		t.Fatal("in-place conversion was accepted")
	}
}

// FuzzDecodeShard: arbitrary bytes must produce an error, never a panic,
// and a refusal must not allocate in proportion to a header field. The
// harness recomputes the trailer over the fuzzed image, so a mutation
// reaches the decoder past the checksum.
func FuzzDecodeShard(f *testing.F) {
	row := shardBlock{csr: &sparse.CSR{M: 2, N: 6, RowPtr: []int{0, 2, 3}, ColIdx: []int{1, 4, 5}, Val: []float64{1, -2, 0.5}}}
	col := shardBlock{csc: cscFromBlock([]int{0, 2, 3}, []int{1, 4, 5}, []float64{1, -2, 0.5})}
	f.Add(encodeShard(LayoutCSR, CodecRaw, row))
	f.Add(encodeShard(LayoutCSR, CodecDelta, row))
	f.Add(encodeShard(LayoutCSC, CodecRaw, col))
	f.Add(encodeShard(LayoutCSC, CodecDelta, col))
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
