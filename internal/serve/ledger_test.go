package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"saco/internal/metrics"
)

// waitFor polls cond (a queue-length condition, never a guess at
// timing) and fails the test if it does not come true.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestStatsIsAViewOfMetrics: /stats and /metrics are two encodings of
// one set of counters. After traffic that takes every counting path — a
// 200, a malformed-body 400, a queue-full 429 and a MaxQueueDelay shed
// — each /stats counter equals its /metrics series and both equal what
// the client saw, whether the server was handed a registry to share or
// (Options.Metrics nil) made its own.
func TestStatsIsAViewOfMetrics(t *testing.T) {
	const queueDelay = 50 * time.Millisecond
	for _, tc := range []struct {
		name   string
		shared *metrics.Registry
	}{
		{"private registry", nil},
		{"shared registry", metrics.NewRegistry()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg, err := OpenRegistry(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := reg.Publish(testModel(KindLasso, 64, 9, 1)); err != nil {
				t.Fatal(err)
			}
			s := NewServer(reg, Options{
				Workers: 1, QueueDepth: 1, MaxBatch: 1,
				MaxQueueDelay: queueDelay, Metrics: tc.shared,
			})
			ts := newHTTPServer(t, s)
			row := []byte("1:0.5 3:1.25\n")
			seen := map[int]uint64{} // status → replies the client received

			status, _ := post(t, ts.URL+"/predict", "text/plain", []byte("1:x\n"))
			seen[status]++
			status, _ = post(t, ts.URL+"/predict", "text/plain", row)
			seen[status]++

			// Park the dispatcher: a job whose reply channel is unbuffered
			// holds it at the send until the test receives, so the queue
			// behind it fills deterministically.
			parked := &predictJob{
				reg: reg, enq: time.Now().Add(time.Hour),
				rowSet: rowSet{rowPtr: []int{0, 2}, colIdx: []int{0, 2}, vals: []float64{0.5, 1.25}, maxCol: 2},
				scores: make([]float64, 1),
				resp:   make(chan predictResult),
			}
			s.jobs <- parked
			waitFor(t, "the dispatcher to take the parked job", func() bool { return len(s.jobs) == 0 })

			queued := make(chan int, 1)
			go func() {
				resp, err := http.Post(ts.URL+"/predict", "text/plain", bytes.NewReader(row))
				if err != nil {
					t.Error(err)
					queued <- 0
					return
				}
				io.Copy(io.Discard, resp.Body) //nolint:errcheck // only the status matters
				resp.Body.Close()
				queued <- resp.StatusCode
			}()
			waitFor(t, "a request to fill the queue", func() bool { return len(s.jobs) == 1 })

			status, body := post(t, ts.URL+"/predict", "text/plain", row)
			if status != http.StatusTooManyRequests || !strings.Contains(string(body), "queue full") {
				t.Fatalf("request against a full queue: %d %q", status, body)
			}
			seen[status]++

			// The queued request outlives its budget, then the dispatcher
			// is released onto it.
			time.Sleep(2 * queueDelay)
			if res := <-parked.resp; res.status != 0 {
				t.Fatalf("parked job: %d %s", res.status, res.errText)
			}
			if status = <-queued; status != http.StatusTooManyRequests {
				t.Fatalf("request queued past MaxQueueDelay answered %d, want 429", status)
			}
			seen[status]++

			_, raw := get(t, ts.URL+"/stats")
			var stats statsResponse
			if err := json.Unmarshal(raw, &stats); err != nil {
				t.Fatalf("/stats: %v\n%s", err, raw)
			}
			code, scrape := get(t, ts.URL+"/metrics")
			if code != http.StatusOK {
				t.Fatalf("/metrics answered %d", code)
			}
			client200, client400, client429 := seen[200], seen[400], seen[429]
			for _, c := range []struct {
				key, series string
				stats, want uint64
			}{
				{"requests", "saco_requests_total", stats.Requests, client200 + client400 + client429},
				{"errors", "saco_request_errors_total", stats.Errors, client400 + client429},
				{"rows_scored", "saco_rows_scored_total", stats.RowsScored, client200 + 1}, // + the parked job
				{"batches", "saco_batches_total", stats.Batches, client200 + 1},
				{"shed", "saco_shed_total", stats.Shed, client429},
			} {
				// Every expected count is nonzero, so a missing series
				// (scrapeValue reads it as 0) fails here too.
				got := uint64(scrapeValue(t, scrape, c.series))
				if c.stats != got || got != c.want {
					t.Errorf("%s: /stats %d, /metrics %s %d, client saw %d", c.key, c.stats, c.series, got, c.want)
				}
			}
			if client400 != 1 || client429 != 2 || client200 != 1 {
				t.Errorf("client saw %v, want one 200, one 400, two 429s", seen)
			}
			if tc.shared != nil {
				if got := tc.shared.Counter("saco_requests_total", "").Value(); got != stats.Requests {
					t.Errorf("shared registry counts %d requests, /stats %d", got, stats.Requests)
				}
			}
		})
	}
}
