package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/iotest"
	"time"

	"saco/internal/libsvm"
	"saco/internal/sparse"
)

// The oracle: the LIBSVM body parser /predict and /learn ran before the
// one-pass tokenizer — a bufio.Scanner over the body, a strings.Fields
// sniff for a label, a synthesized "0 " prefix, a copy per row — moved
// here verbatim. It still parses rows through RowParser.Parse(string),
// which internal/libsvm's own differential fuzz holds to the
// strings.Fields grammar; what this oracle pins is everything serve
// layered on top: line splitting and numbering, label detection, the
// /learn label requirement and the order errors are reported in.
type oracleRows struct {
	cols   [][]int
	vals   [][]float64
	labels []float64
	maxCol int
}

func oracleLIBSVMRows(body []byte, withLabels bool) (oracleRows, error) {
	out := oracleRows{maxCol: -1}
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 1<<16), 1<<26)
	var parser libsvm.RowParser
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if libsvm.Skip(line) {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) > 0 && strings.Contains(fields[0], ":") {
			if withLabels {
				return out, fmt.Errorf("line %d: learn rows require a leading label", lineNo)
			}
			line = "0 " + line
		}
		label, err := parser.Parse(line, lineNo)
		if err != nil {
			return out, err
		}
		out.cols = append(out.cols, append([]int(nil), parser.Cols...))
		out.vals = append(out.vals, append([]float64(nil), parser.Vals...))
		if withLabels {
			out.labels = append(out.labels, label)
		}
		if c := parser.MaxCol(); c > out.maxCol {
			out.maxCol = c
		}
	}
	return out, sc.Err()
}

// checkBodyAgainstOracle holds parseLIBSVM to the oracle on one body in
// both label modes, reusing rs the way a pooled job is reused.
func checkBodyAgainstOracle(t *testing.T, rs *rowSet, body []byte) {
	t.Helper()
	r := httptest.NewRequest(http.MethodPost, "/predict", nil)
	for _, withLabels := range []bool{false, true} {
		want, wantErr := oracleLIBSVMRows(body, withLabels)
		err := rs.parse(r, body, withLabels)
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("%q withLabels=%v:\n flat   %v\n oracle %v", body, withLabels, err, wantErr)
		}
		if err != nil {
			continue
		}
		if rs.rows() != len(want.cols) || rs.maxCol != want.maxCol || len(rs.labels) != len(want.labels) {
			t.Fatalf("%q withLabels=%v: %d rows maxCol %d %d labels, oracle %d %d %d",
				body, withLabels, rs.rows(), rs.maxCol, len(rs.labels), len(want.cols), want.maxCol, len(want.labels))
		}
		for i := range want.cols {
			lo, hi := rs.rowPtr[i], rs.rowPtr[i+1]
			if !slices.Equal(rs.colIdx[lo:hi], want.cols[i]) || !slices.EqualFunc(rs.vals[lo:hi], want.vals[i], sameBits) {
				t.Fatalf("%q withLabels=%v row %d: %v %v, oracle %v %v",
					body, withLabels, i, rs.colIdx[lo:hi], rs.vals[lo:hi], want.cols[i], want.vals[i])
			}
		}
		if !slices.EqualFunc(rs.labels, want.labels, sameBits) {
			t.Fatalf("%q: labels %v, oracle %v", body, rs.labels, want.labels)
		}
	}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

var differentialBodies = []string{
	"1:0.5 3:1.25\n",
	"+1 1:1 3:1\n2:-1\n",
	"1 1:1\r\n# comment\r\n\r\n-1 2:2", // CRLF, comment, blank, no final newline
	"\n\n1:1\n\n",
	"1:1 2:+0 3:-0 4:0\n5:0\n",
	"1\u00851:1\u00a02:2\n\u2028\n\u00a0#x\n3:3\u3000\n", // non-ASCII white space as separator, blank line and comment indent
	"1 1:1\n1:x\n",            // second line unlabeled and malformed: /learn names the label first
	"1 1:1\n2 3:1 3:2\n",      // duplicate on line 2
	"1 1:1\n\n# c\n2 5:1 2:1", // out of order on line 4
	"nan 1:1\n",
	"1\n2\n", // label-only rows: empty rows, maxCol -1
	"1:1\xc2\n\xe2\x80\n",
	":\n", "1:\n", "x\n", "1:1 2\n", "\r", "#\n",
	"",
}

func TestParseLIBSVMMatchesOracle(t *testing.T) {
	var rs rowSet
	for _, body := range differentialBodies {
		checkBodyAgainstOracle(t, &rs, []byte(body))
	}
}

// FuzzPredictBody: on every body the one-pass parser and the oracle
// give the same verdict, the same error text (line number included) and
// bit-identical rows, for /predict and for /learn.
func FuzzPredictBody(f *testing.F) {
	for _, s := range differentialBodies {
		f.Add([]byte(s))
	}
	var rs rowSet
	f.Fuzz(func(t *testing.T, body []byte) {
		checkBodyAgainstOracle(t, &rs, body)
	})
}

// predictResponse is the /predict reply as a struct for encoding/json:
// what the handler encoded through before appendPredictResponse, what
// the tests decode replies into, and the golden test's reference.
type predictResponse struct {
	ModelVersion uint64    `json:"model_version"`
	Scores       []float64 `json:"scores"`
	Labels       []int     `json:"labels,omitempty"`
}

// TestReplyBytesMatchEncodingJSON: the append-encoded reply is what
// json.Encoder writes for predictResponse, byte for byte — both number
// forms on both sides of their 1e-6 and 1e21 cutoffs, signed zero,
// subnormals, and the labels array of a classifier.
func TestReplyBytesMatchEncodingJSON(t *testing.T) {
	scores := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 1.0 / 3, -2.5e-5, 123456789.125,
		1e-6, math.Nextafter(1e-6, 0), -math.Nextafter(1e-6, 0), 9.999999e-7, 1e-7, 1.5e-10, 1e-100, 5e-324, -2.2250738585072014e-308,
		1e21, math.Nextafter(1e21, 0), -1e21, 999999999999999934464, 1.5e22, 1e100, math.MaxFloat64, -math.MaxFloat64,
		float64(1 << 53), -9007199254740993,
	}
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 200; i++ {
		scores = append(scores, rng.NormFloat64()*math.Pow(10, float64(rng.Intn(60)-30)))
	}
	for _, kind := range []Kind{KindLasso, KindSVM} {
		m := &Model{Kind: kind, Version: 18446744073709551615}
		want := predictResponse{ModelVersion: m.Version, Scores: scores}
		if kind.Classifier() {
			for _, v := range scores {
				if v >= 0 {
					want.Labels = append(want.Labels, 1)
				} else {
					want.Labels = append(want.Labels, -1)
				}
			}
		}
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(want); err != nil {
			t.Fatal(err)
		}
		got, bad := appendPredictResponse([]byte("stale"), m, scores)
		if bad != -1 {
			t.Fatalf("%v: finite scores reported bad at row %d", kind, bad)
		}
		if got = got[len("stale"):]; !bytes.Equal(got, buf.Bytes()) {
			t.Fatalf("%v reply differs from encoding/json:\n got  %s\n want %s", kind, got, buf.Bytes())
		}
	}
	for i, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, bad := appendPredictResponse(nil, &Model{Kind: KindSVM}, append(make([]float64, i), v, 1)); bad != i {
			t.Fatalf("%v at row %d reported at %d", v, i, bad)
		}
	}
}

// TestNonFiniteScoreIsAnError: a score JSON cannot carry answers 422
// naming the row and ticks the error counter. Before the append encoder
// json.Encoder failed silently and the client got 200 with no body.
func TestNonFiniteScoreIsAnError(t *testing.T) {
	reg, err := OpenRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Publish(NewModel(KindLasso, []float64{10, 1})); err != nil {
		t.Fatal(err)
	}
	s := NewServer(reg, Options{Workers: 1})
	ts := newHTTPServer(t, s)
	for body, wantRow := range map[string]string{
		"2:1\n1:1e308\n":   "row 1 ",
		"1:NaN\n":          "row 0 ",
		"2:1\n2:2\n2:-Inf": "row 2 ",
	} {
		before := s.met.errors.Value()
		st, data := post(t, ts.URL+"/predict", "text/plain", []byte(body))
		if st != http.StatusUnprocessableEntity || !strings.Contains(string(data), wantRow) {
			t.Fatalf("%q: %d %q, want 422 naming %q", body, st, data, wantRow)
		}
		if got := s.met.errors.Value(); got != before+1 {
			t.Fatalf("%q: errors counter %d -> %d, want +1", body, before, got)
		}
	}
	if st, data := post(t, ts.URL+"/predict", "text/plain", []byte("1:1e307\n")); st != http.StatusOK || decodePredict(t, data).Scores[0] != 1e308 {
		t.Fatalf("finite score after the failures: %d %q", st, data)
	}
}

// TestReadBodyFailures: only a body over the cap is 413. A client that
// goes away mid-body is 400 "unreadable body" (it used to be told, and
// counted as, too large), and a Content-Length over the cap is refused
// before a byte of the body is read.
func TestReadBodyFailures(t *testing.T) {
	reg, err := OpenRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Publish(NewModel(KindLasso, []float64{1, 2, 3})); err != nil {
		t.Fatal(err)
	}
	s := NewServer(reg, Options{Workers: 1, MaxBodyBytes: 64})
	ts := newHTTPServer(t, s)
	h := s.Handler()

	// A body that ends before its Content-Length: the read fails, but
	// not with MaxBytesError.
	rec := httptest.NewRecorder()
	r := httptest.NewRequest(http.MethodPost, "/predict", io.MultiReader(strings.NewReader("1:1 2:"), iotest.ErrReader(io.ErrUnexpectedEOF)))
	r.ContentLength = 32
	h.ServeHTTP(rec, r)
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "unreadable body") {
		t.Fatalf("truncated body: %d %q, want 400 unreadable body", rec.Code, rec.Body)
	}

	// Over the cap with the length declared: refused from the header.
	untouched := &countingReader{}
	rec = httptest.NewRecorder()
	r = httptest.NewRequest(http.MethodPost, "/predict", untouched)
	r.ContentLength = 65
	h.ServeHTTP(rec, r)
	if rec.Code != http.StatusRequestEntityTooLarge || untouched.reads != 0 {
		t.Fatalf("declared oversize: %d after %d body reads, want 413 after 0", rec.Code, untouched.reads)
	}

	// Over the cap with no length declared (chunked): MaxBytesReader's 413.
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/predict", struct{ *strings.Reader }{strings.NewReader(strings.Repeat("1:1\n", 17))})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("chunked oversize: %d, want 413", resp.StatusCode)
	}

	// Exactly at the cap is served.
	if st, data := post(t, ts.URL+"/predict", "text/plain", []byte(strings.Repeat("1:1\n", 16))); st != http.StatusOK {
		t.Fatalf("body of exactly MaxBodyBytes: %d %q", st, data)
	}

	// The same over a real connection: a client that hangs up mid-body.
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	before := s.met.errors.Value()
	fmt.Fprintf(conn, "POST /predict HTTP/1.1\r\nHost: x\r\nContent-Length: 40\r\n\r\n1:1 2:")
	conn.(*net.TCPConn).CloseWrite() //nolint:errcheck // the read below reports a dead connection
	reply, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	reply.Body.Close()
	conn.Close()
	if reply.StatusCode != http.StatusBadRequest {
		t.Fatalf("client hung up mid-body: %d, want 400", reply.StatusCode)
	}
	waitFor(t, "the error to be counted", func() bool { return s.met.errors.Value() == before+1 })
}

type countingReader struct{ reads int }

func (c *countingReader) Read([]byte) (int, error) {
	c.reads++
	return 0, fmt.Errorf("the body must not be read")
}

// requestBody renders rows×nnz random features within n as a LIBSVM
// body and returns the same rows as a CSR.
func requestBody(rng *rand.Rand, rows, nnz, n int) ([]byte, *sparse.CSR) {
	var cols [][]int
	var vals [][]float64
	rowPtr := []int{0}
	var colIdx []int
	var flat []float64
	for r := 0; r < rows; r++ {
		c := rng.Perm(n)[:nnz]
		slices.Sort(c)
		v := make([]float64, nnz)
		for k := range v {
			v[k] = rng.NormFloat64()
		}
		cols, vals = append(cols, c), append(vals, v)
		colIdx, flat = append(colIdx, c...), append(flat, v...)
		rowPtr = append(rowPtr, len(flat))
	}
	a, err := sparse.NewCSR(rows, n, rowPtr, colIdx, flat)
	if err != nil {
		panic(err)
	}
	return libsvmBody(cols, vals), a
}

// TestHandlerAllocations: a warm server answers a LIBSVM /predict in a
// fixed, small number of allocations whatever the row count — request
// state comes from the free list, the tokenizer and the reply encoder
// allocate nothing. The count includes httptest's request and recorder.
func TestHandlerAllocations(t *testing.T) {
	const features = 4096
	reg, err := OpenRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := testModel(KindLasso, features, 200, 3)
	if _, err := reg.Publish(m); err != nil {
		t.Fatal(err)
	}
	s := NewServer(reg, Options{Workers: 1, BatchWindow: time.Microsecond})
	defer s.Close()
	h := s.Handler()
	for _, rows := range []int{8, 256} {
		body, a := requestBody(rand.New(rand.NewSource(int64(rows))), rows, 48, features)
		want := make([]float64, rows)
		if err := m.Score(a, 1, want); err != nil {
			t.Fatal(err)
		}
		post := func() *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/predict", bytes.NewReader(body)))
			return rec
		}
		// The first request warms the free list.
		if got := decodePredict(t, post().Body.Bytes()).Scores; !slices.EqualFunc(got, want, sameBits) {
			t.Fatalf("%d rows: reply does not match Model.Score", rows)
		}
		fresh := testing.AllocsPerRun(50, func() { post() })
		t.Logf("%d rows: %v allocs per request", rows, fresh)
		if fresh > 25 {
			t.Errorf("%d rows: %v allocs per request, want <= 25", rows, fresh)
		}
	}
}

// TestJobRecycling hammers /predict from 8 goroutines, each with bodies
// of its own, through a server that sheds on MaxQueueDelay and is closed
// under them. Every 200 reply must carry that request's own offline
// scores bitwise: a job put back on the free list while the dispatcher
// (or a shed, or a shutdown) still held it would be refilled by another
// handler and answer with someone else's rows.
func TestJobRecycling(t *testing.T) {
	const features, clients = 512, 8
	reg, err := OpenRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := testModel(KindSVM, features, 64, 5)
	if _, err := reg.Publish(m); err != nil {
		t.Fatal(err)
	}
	s := NewServer(reg, Options{
		Workers: 1, MaxBatch: 24, QueueDepth: 4,
		BatchWindow: 200 * time.Microsecond, MaxQueueDelay: 150 * time.Microsecond,
	})
	h := s.Handler()

	rounds := 400
	if testing.Short() {
		rounds = 100
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	seen := map[int]int{}
	closed := make(chan struct{})
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			local := map[int]int{}
			for i := 0; i < rounds; i++ {
				if c == 0 && i == rounds*3/4 {
					s.Close()
					close(closed)
				}
				rows := 1 + rng.Intn(16) // below, at and above what fits a batch with a companion
				body, a := requestBody(rng, rows, 1+rng.Intn(12), features)
				want := make([]float64, rows)
				if err := m.Score(a, 1, want); err != nil {
					t.Error(err)
					return
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/predict", bytes.NewReader(body)))
				local[rec.Code]++
				switch rec.Code {
				case http.StatusOK:
					var pr predictResponse
					if err := json.Unmarshal(rec.Body.Bytes(), &pr); err != nil {
						t.Errorf("client %d request %d: bad reply %q: %v", c, i, rec.Body, err)
						return
					}
					if !slices.EqualFunc(pr.Scores, want, sameBits) {
						t.Errorf("client %d request %d: scores are not this request's:\n got  %v\n want %v", c, i, pr.Scores, want)
						return
					}
					for r, v := range want {
						if (v >= 0) != (pr.Labels[r] == 1) {
							t.Errorf("client %d request %d: label %d for score %v", c, i, pr.Labels[r], v)
							return
						}
					}
				case http.StatusTooManyRequests, http.StatusServiceUnavailable:
				default:
					t.Errorf("client %d request %d: status %d %q", c, i, rec.Code, rec.Body)
					return
				}
			}
			mu.Lock()
			for k, v := range local {
				seen[k] += v
			}
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	<-closed
	t.Logf("replies by status: %v", seen)
	if seen[http.StatusOK] == 0 || seen[http.StatusTooManyRequests] == 0 || seen[http.StatusServiceUnavailable] == 0 {
		t.Fatalf("the run must see scored, shed and shut-down replies, got %v", seen)
	}
}

// BenchmarkPredictHandler serves 256-row × 48-feature LIBSVM requests
// (the serve-bulk traffic shape) through Server.Handler().
func BenchmarkPredictHandler(b *testing.B) {
	const features = 8192
	reg, err := OpenRegistry(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	if _, err := reg.Publish(testModel(KindLasso, features, 400, 3)); err != nil {
		b.Fatal(err)
	}
	s := NewServer(reg, Options{})
	defer s.Close()
	h := s.Handler()
	body, _ := requestBody(rand.New(rand.NewSource(1)), 256, 48, features)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for b.Loop() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/predict", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("%d %s", rec.Code, rec.Body)
		}
	}
}
