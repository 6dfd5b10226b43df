package metrics

import (
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// TestExpositionFormat pins the rendered text format: sorted families,
// one HELP/TYPE header each, label suffixes, cumulative buckets with a
// trailing +Inf, and _sum/_count series.
func TestExpositionFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("saco_requests_total", "requests accepted").Add(3)
	r.Gauge("saco_queue_depth", "jobs queued").Set(2)
	r.GaugeFunc("saco_active_version", "serving version", func() float64 { return 7 }, Label{"model", "alpha"})
	h := r.Histogram("saco_batch_rows", "rows per batch", []float64{1, 4, 16})
	h.Observe(1)
	h.Observe(3)
	h.Observe(100)

	var sb strings.Builder
	if err := r.Write(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP saco_active_version serving version
# TYPE saco_active_version gauge
saco_active_version{model="alpha"} 7
# HELP saco_batch_rows rows per batch
# TYPE saco_batch_rows histogram
saco_batch_rows_bucket{le="1"} 1
saco_batch_rows_bucket{le="4"} 2
saco_batch_rows_bucket{le="16"} 2
saco_batch_rows_bucket{le="+Inf"} 3
saco_batch_rows_sum 104
saco_batch_rows_count 3
# HELP saco_queue_depth jobs queued
# TYPE saco_queue_depth gauge
saco_queue_depth 2
# HELP saco_requests_total requests accepted
# TYPE saco_requests_total counter
saco_requests_total 3
`
	if sb.String() != want {
		t.Fatalf("exposition mismatch:\n got:\n%s\nwant:\n%s", sb.String(), want)
	}
}

// TestLabeledHistogram: a label suffix folds into le= bucket labels and
// suffixes _sum/_count.
func TestLabeledHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "l", []float64{0.5}, Label{"model", "m1"})
	h.Observe(0.25)
	var sb strings.Builder
	if err := r.Write(&sb); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		`lat_bucket{model="m1",le="0.5"} 1`,
		`lat_bucket{model="m1",le="+Inf"} 1`,
		`lat_sum{model="m1"} 0.25`,
		`lat_count{model="m1"} 1`,
	} {
		if !strings.Contains(sb.String(), line+"\n") {
			t.Fatalf("missing %q in:\n%s", line, sb.String())
		}
	}
}

// TestIdempotentRegistration: the same (name, labels) returns the same
// instance; a different label value is a distinct series; a type clash
// panics.
func TestIdempotentRegistration(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("c", "h", Label{"model", "x"})
	b := r.Counter("c", "h", Label{"model", "x"})
	if a != b {
		t.Fatal("re-registration must return the existing counter")
	}
	c := r.Counter("c", "h", Label{"model", "y"})
	if c == a {
		t.Fatal("distinct label values must be distinct series")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("type clash must panic")
		}
	}()
	r.Gauge("c", "h", Label{"model", "x"})
}

// TestUnregister removes a series from scrapes.
func TestUnregister(t *testing.T) {
	r := NewRegistry()
	r.Counter("gone", "h", Label{"model", "x"}).Inc()
	r.Counter("kept", "h").Inc()
	r.Unregister("gone", Label{"model", "x"})
	var sb strings.Builder
	if err := r.Write(&sb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "gone") || !strings.Contains(sb.String(), "kept 1") {
		t.Fatalf("unregister failed:\n%s", sb.String())
	}
}

// TestNilSafety: nil metric handles ignore writes and read as zero, so
// optional wiring needs no branches.
func TestNilSafety(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	c.Add(5)
	c.Inc()
	g.Set(3)
	h.Observe(1)
	if c.Value() != 0 {
		t.Fatal("nil metrics must read as zero")
	}
}

// TestHistogramConcurrent hammers one histogram from many goroutines
// (run under -race in CI) and checks that no observation is lost and
// the sum matches.
func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "h", []float64{10, 100, 1000})
	const workers = 8
	const perWorker = 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.Observe(float64(i % 1500))
			}
		}()
	}
	wg.Wait()
	cum, count, sum := h.snapshot()
	var wantSum float64
	for i := 0; i < perWorker; i++ {
		wantSum += float64(i % 1500)
	}
	wantSum *= workers
	if math.Abs(sum-wantSum) > 1e-6*wantSum {
		t.Fatalf("sum = %v, want ~%v", sum, wantSum)
	}
	if count != workers*perWorker || cum[len(cum)-1] != count {
		t.Fatalf("snapshot count %d / cum %v", count, cum)
	}
	for j := 1; j < len(cum); j++ {
		if cum[j] < cum[j-1] {
			t.Fatalf("cumulative counts must be monotone: %v", cum)
		}
	}
}

// TestHandler serves the scrape over HTTP with the text content type.
func TestHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "h").Add(9)
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	buf := make([]byte, 1024)
	n, _ := resp.Body.Read(buf)
	if !strings.Contains(string(buf[:n]), "x 9") {
		t.Fatalf("scrape body: %s", buf[:n])
	}
}

// TestBadBuckets: non-increasing bounds are a construction panic.
func TestBadBuckets(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on unsorted buckets")
		}
	}()
	NewRegistry().Histogram("h", "h", []float64{1, 1})
}

// TestLabelEscaping: reserved characters in label values are escaped.
func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("e", "h", Label{"k", `a"b\c` + "\n"}).Inc()
	var sb strings.Builder
	if err := r.Write(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `e{k="a\"b\\c\n"} 1`) {
		t.Fatalf("escaping: %s", sb.String())
	}
}
