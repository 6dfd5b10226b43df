package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestLearnIngestAndBackpressure: /learn stages labeled rows up to the
// buffer cap, refuses whole requests past it with 429 + Retry-After,
// and rejects label-less rows.
func TestLearnIngestAndBackpressure(t *testing.T) {
	reg, err := OpenRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var hooked *LearnBuffer
	s := NewServer(reg, Options{
		LearnCap: 3,
		OnLearn:  func(name string, r *Registry, buf *LearnBuffer) { hooked = buf },
	})
	ts := newHTTPServer(t, s)

	// Two labeled rows: accepted.
	status, body := post(t, ts.URL+"/learn", "text/plain", []byte("1 1:0.5 3:1.0\n-1 2:2.0\n"))
	if status != http.StatusAccepted {
		t.Fatalf("learn status %d: %s", status, body)
	}
	var lr learnResponse
	if err := json.Unmarshal(body, &lr); err != nil || lr.Accepted != 2 || lr.Buffered != 2 {
		t.Fatalf("learn reply %s (err %v)", body, err)
	}
	if hooked == nil || hooked.Len() != 2 {
		t.Fatal("OnLearn hook did not fire with the live buffer")
	}

	// Two more rows do not fit in the remaining capacity of 1: the whole
	// request is refused, nothing partial.
	resp, err := http.Post(ts.URL+"/learn", "text/plain", strings.NewReader("1 1:1\n-1 2:1\n"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overfull learn status %d", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if hooked.Len() != 2 {
		t.Fatalf("refused request leaked rows: %d buffered", hooked.Len())
	}

	// Label-less LIBSVM rows are a 400 on /learn (but fine on /predict).
	if status, _ := post(t, ts.URL+"/learn", "text/plain", []byte("1:0.5 2:1.0\n")); status != http.StatusBadRequest {
		t.Fatalf("label-less learn row answered %d", status)
	}

	// JSON learn grammar: rows plus parallel labels.
	jsonBody := []byte(`{"rows":[{"indices":[1,2],"values":[1.0,2.0]}],"labels":[1]}`)
	if status, body := post(t, ts.URL+"/learn", "application/json", jsonBody); status != http.StatusAccepted {
		t.Fatalf("JSON learn status %d: %s", status, body)
	}
}

// TestLearnRejectsOversizedRows: once a model serves, learn rows wider
// than its dimensionality are refused at ingest.
func TestLearnRejectsOversizedRows(t *testing.T) {
	reg, err := OpenRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Publish(testModel(KindLasso, 10, 3, 1)); err != nil {
		t.Fatal(err)
	}
	s := NewServer(reg, Options{LearnCap: 100})
	ts := newHTTPServer(t, s)
	if status, _ := post(t, ts.URL+"/learn", "text/plain", []byte("1 99:1.0\n")); status != http.StatusBadRequest {
		t.Fatalf("oversized learn row answered %d", status)
	}
}

// TestRefitStreamPublishes: rows offered to a buffer flow through
// RefitStream into published model versions, warm-started cycle over
// cycle, without a pre-existing model.
func TestRefitStreamPublishes(t *testing.T) {
	reg, err := OpenRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	buf := NewLearnBuffer(1024)
	// y = 2·x1 on a 3-feature design: the lasso should find feature 1.
	rowPtr := []int{0}
	var cols []int
	var vals []float64
	var labels []float64
	for i := 0; i < 64; i++ {
		x := float64(i%7) - 3
		cols = append(cols, 0, 2)
		vals = append(vals, x, 0.01*float64(i%3))
		rowPtr = append(rowPtr, len(vals))
		labels = append(labels, 2*x)
	}
	if !buf.Offer(rowPtr, cols, vals, labels) {
		t.Fatal("offer failed")
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- RefitStream(ctx, reg, buf, RefitOptions{
			Kind:   KindLasso,
			Lambda: 0.01,
			Every:  30 * time.Millisecond,
			Seed:   1,
		})
	}()
	deadline := time.Now().Add(10 * time.Second)
	for reg.Version() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("refit stream never published")
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	m := reg.Current()
	if m == nil || m.Kind != KindLasso || m.Features != 3 {
		t.Fatalf("published model %+v", m)
	}
	if w := m.Dense()[0]; w < 1.0 || w > 3.0 {
		t.Fatalf("learned weight %v for a y=2x signal", w)
	}
}

// TestLabeledRowsWindowTrim: the sliding window drops whole old rows by
// rebasing rowPtr. At every boundary — nothing to drop, exactly the
// first request, everything but the newest row — each surviving row
// keeps its own indices, values and label, and the window still builds
// a valid CSR.
func TestLabeledRowsWindowTrim(t *testing.T) {
	// Two requests of rows with distinct widths 1, 3 | 0, 2, 1; row r's
	// values and label are all r+1, so misalignment shows.
	requests := []labeledRows{
		{rowPtr: []int{0, 1, 4}, colIdx: []int{5, 0, 2, 4}, vals: []float64{1, 2, 2, 2}, labels: []float64{1, 2}},
		{rowPtr: []int{0, 0, 2, 3}, colIdx: []int{1, 3, 6}, vals: []float64{4, 4, 5}, labels: []float64{3, 4, 5}},
	}
	widths := []int{1, 3, 0, 2, 1}
	for _, tc := range []struct {
		name string
		keep int
	}{
		{"drop 0 (window larger than the data)", 9},
		{"drop 0 (window exactly full)", 5},
		{"drop exactly the first request", 3},
		{"drop everything but the last row", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var w labeledRows
			for _, r := range requests {
				w.append(r)
			}
			w.keepLast(tc.keep)
			first := max(len(widths)-tc.keep, 0)
			if got, want := len(w.labels), len(widths)-first; got != want {
				t.Fatalf("%d rows survive, want %d", got, want)
			}
			if len(w.rowPtr) != len(w.labels)+1 || w.rowPtr[0] != 0 || w.rowPtr[len(w.labels)] != len(w.colIdx) || len(w.vals) != len(w.colIdx) {
				t.Fatalf("rowPtr %v does not frame %d indices / %d values", w.rowPtr, len(w.colIdx), len(w.vals))
			}
			for r, label := range w.labels {
				orig := first + r
				if label != float64(orig+1) {
					t.Fatalf("row %d carries label %v, want %v", r, label, orig+1)
				}
				vals := w.vals[w.rowPtr[r]:w.rowPtr[r+1]]
				if len(vals) != widths[orig] {
					t.Fatalf("row %d (originally %d) has width %d, want %d", r, orig, len(vals), widths[orig])
				}
				for _, v := range vals {
					if v != label {
						t.Fatalf("row %d holds value %v under label %v", r, v, label)
					}
				}
			}
			a, err := w.matrix(nil)
			if err != nil {
				t.Fatalf("trimmed window is not a valid CSR: %v", err)
			}
			if a.M != len(w.labels) || a.N != 7 { // the newest row reaches column 6
				t.Fatalf("matrix is %dx%d, want %dx7", a.M, a.N, len(w.labels))
			}
			// The window keeps growing after a trim: a later request lands
			// behind the survivors with its offsets rebased onto them.
			w.append(labeledRows{rowPtr: []int{0, 2}, colIdx: []int{0, 1}, vals: []float64{6, 6}, labels: []float64{6}})
			last := len(w.labels) - 1
			if w.labels[last] != 6 || w.rowPtr[last+1]-w.rowPtr[last] != 2 || w.vals[w.rowPtr[last]] != 6 {
				t.Fatalf("append after trim misplaced the row: rowPtr %v vals %v", w.rowPtr, w.vals)
			}
		})
	}
}
