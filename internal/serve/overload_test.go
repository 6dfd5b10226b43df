package serve

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"saco/internal/metrics"
)

// newHTTPServer mounts an already-built Server into httptest.
func newHTTPServer(t *testing.T, s *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return ts
}

// get fetches a URL and returns (status, bytes).
func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// TestAdmissionControlSheds drives a deliberately starved server (one-
// deep queue, long batch window, tiny queue-delay budget) far past
// capacity and checks the overload contract: every request is answered
// (200 or 429 — the ledger adds up, nothing deadlocks), every 429
// carries Retry-After, and the server's shed count reconciles exactly
// with the 429s the driver observed.
func TestAdmissionControlSheds(t *testing.T) {
	reg, err := OpenRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Publish(testModel(KindLasso, 64, 9, 1)); err != nil {
		t.Fatal(err)
	}
	// A long batch window with a short queue-delay budget guarantees
	// deadline sheds: the first jobs of each batch wait out the window
	// and blow their budget, late arrivals score. (Queue-full rejects
	// can add to the mix; both paths answer 429 and tick the same shed
	// ledger.)
	mr := metrics.NewRegistry()
	s := NewServer(reg, Options{
		Workers:       1,
		QueueDepth:    64,
		MaxBatch:      256,
		BatchWindow:   50 * time.Millisecond,
		MaxQueueDelay: 10 * time.Millisecond,
		Metrics:       mr,
	})
	ts := newHTTPServer(t, s)

	const clients = 16
	const perClient = 12
	var ok200, ok429 atomic.Uint64
	var wg sync.WaitGroup
	body := []byte("1:0.5 3:1.25\n")
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				resp, err := http.Post(ts.URL+"/predict", "text/plain", strings.NewReader(string(body)))
				if err != nil {
					t.Error(err)
					return
				}
				switch resp.StatusCode {
				case http.StatusOK:
					ok200.Add(1)
				case http.StatusTooManyRequests:
					if resp.Header.Get("Retry-After") == "" {
						t.Error("429 without Retry-After")
					}
					ok429.Add(1)
				default:
					t.Errorf("unexpected status %d", resp.StatusCode)
				}
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()

	total := ok200.Load() + ok429.Load()
	if total != clients*perClient {
		t.Fatalf("ledger mismatch: %d answers for %d requests", total, clients*perClient)
	}
	if ok429.Load() == 0 {
		t.Fatal("starved server shed nothing — admission control inactive")
	}
	if shed := s.met.shed.Value(); shed != ok429.Load() {
		t.Fatalf("server shed count %d, driver observed %d 429s", shed, ok429.Load())
	}

	// The drained server still answers — and the probe joins the ledger
	// so the /metrics scrape below reconciles exactly.
	switch status, _ := post(t, ts.URL+"/predict", "text/plain", body); status {
	case http.StatusOK:
		ok200.Add(1)
	case http.StatusTooManyRequests:
		ok429.Add(1)
	default:
		t.Fatalf("post-burst request answered %d", status)
	}
	_, scrape := get(t, ts.URL+"/metrics")
	if want := fmt.Sprintf("saco_shed_total %d", ok429.Load()); !strings.Contains(string(scrape), want) {
		t.Fatalf("scrape missing %q:\n%s", want, scrape)
	}
	if want := fmt.Sprintf("saco_rows_scored_total %d", ok200.Load()); !strings.Contains(string(scrape), want) {
		t.Fatalf("scrape missing %q (one row per 200):\n%s", want, scrape)
	}
}

// TestQueueFullFastReject: with the dispatcher unable to drain (no
// model needed — the queue itself is the gate), surplus enqueues are
// rejected immediately rather than blocking the handler.
func TestQueueFullFastReject(t *testing.T) {
	reg, err := OpenRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Publish(testModel(KindLasso, 64, 9, 1)); err != nil {
		t.Fatal(err)
	}
	s := NewServer(reg, Options{
		Workers:     1,
		QueueDepth:  1,
		MaxBatch:    1,
		BatchWindow: time.Millisecond,
	})
	ts := newHTTPServer(t, s)

	var shed atomic.Uint64
	var wg sync.WaitGroup
	for c := 0; c < 32; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/predict", "text/plain", strings.NewReader("1:1\n"))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode == http.StatusTooManyRequests {
				shed.Add(1)
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("overloaded server deadlocked")
	}
}
