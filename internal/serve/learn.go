package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"saco/internal/sparse"
)

// The online-learning ingress. POST /learn accepts labeled rows (same
// LIBSVM / JSON grammars as /predict, labels required) into a bounded
// in-memory buffer; a live refit (RefitStream) drains the buffer and
// publishes fresh model versions through the registry's usual
// temp+rename+atomic-swap pipeline. The predict path never touches the
// buffer and the buffer never blocks: a full buffer refuses the rows
// with 429 + Retry-After (backpressure is the client's signal to slow
// down), so learn traffic can saturate without ever adding latency to
// scoring.

// DefaultLearnCap is the per-model row capacity when Options.LearnCap
// is not set by the caller (saserve defaults the flag to this).
const DefaultLearnCap = 65536

// labeledRows is labeled sparse rows in flat CSR arrays — the shape
// rowSet parses a request into and sparse.NewCSR takes: row r is
// colIdx/vals[rowPtr[r]:rowPtr[r+1]] with label labels[r]. The zero
// value holds no rows.
type labeledRows struct {
	rowPtr []int
	colIdx []int
	vals   []float64
	labels []float64
}

// append copies the rows of src onto the end.
func (f *labeledRows) append(src labeledRows) {
	if len(src.labels) == 0 {
		return
	}
	if len(f.rowPtr) == 0 {
		f.rowPtr = append(f.rowPtr, 0)
	}
	lo, hi := src.rowPtr[0], src.rowPtr[len(src.labels)]
	shift := len(f.colIdx) - lo
	for _, p := range src.rowPtr[1 : len(src.labels)+1] {
		f.rowPtr = append(f.rowPtr, p+shift)
	}
	f.colIdx = append(f.colIdx, src.colIdx[lo:hi]...)
	f.vals = append(f.vals, src.vals[lo:hi]...)
	f.labels = append(f.labels, src.labels...)
}

// keepLast drops the oldest rows beyond the newest n, rebasing rowPtr so
// the survivors start at offset 0 again.
func (f *labeledRows) keepLast(n int) {
	drop := len(f.labels) - n
	if drop <= 0 {
		return
	}
	off := f.rowPtr[drop]
	f.rowPtr = f.rowPtr[drop:]
	for i := range f.rowPtr {
		f.rowPtr[i] -= off
	}
	f.colIdx, f.vals, f.labels = f.colIdx[off:], f.vals[off:], f.labels[drop:]
}

// LearnBuffer is a bounded, mutex-guarded staging area of labeled rows
// between the /learn handler and a refit consumer. Offers are
// all-or-nothing: a request's rows are accepted together or refused
// together, so a client never has to figure out which half of its
// batch made it in.
type LearnBuffer struct {
	mu      sync.Mutex
	capRows int
	rows    labeledRows
}

// NewLearnBuffer builds a buffer holding at most capRows rows
// (<= 0 selects DefaultLearnCap).
func NewLearnBuffer(capRows int) *LearnBuffer {
	if capRows <= 0 {
		capRows = DefaultLearnCap
	}
	return &LearnBuffer{capRows: capRows}
}

// Cap returns the row capacity.
func (l *LearnBuffer) Cap() int { return l.capRows }

// Len returns the buffered row count.
func (l *LearnBuffer) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.rows.labels)
}

// Offer appends the len(labels) rows held in CSR arrays (row r is
// colIdx/vals[rowPtr[r]:rowPtr[r+1]], columns 0-based and ascending) if
// they all fit, reporting whether they were taken. The rows are copied:
// the caller keeps its slices.
func (l *LearnBuffer) Offer(rowPtr, colIdx []int, vals, labels []float64) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.rows.labels)+len(labels) > l.capRows {
		return false
	}
	l.rows.append(labeledRows{rowPtr, colIdx, vals, labels})
	return true
}

// drain takes everything buffered, leaving the buffer empty.
func (l *LearnBuffer) drain() labeledRows {
	l.mu.Lock()
	defer l.mu.Unlock()
	rows := l.rows
	l.rows = labeledRows{}
	return rows
}

// learnSet owns the per-model learn buffers; the first accepted rows
// for a name fire the server's OnLearn hook exactly once.
type learnSet struct {
	mu      sync.Mutex
	capRows int
	bufs    map[string]*LearnBuffer
}

func newLearnSet(capRows int) *learnSet {
	return &learnSet{capRows: capRows, bufs: make(map[string]*LearnBuffer)}
}

// buffer returns the buffer for name, creating it (and reporting
// created=true) on first use.
func (ls *learnSet) buffer(name string) (buf *LearnBuffer, created bool) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	if b := ls.bufs[name]; b != nil {
		return b, false
	}
	b := NewLearnBuffer(ls.capRows)
	ls.bufs[name] = b
	return b, true
}

// learnResponse is the POST /learn reply.
type learnResponse struct {
	Accepted int `json:"accepted"`
	Buffered int `json:"buffered"`
}

// handleLearn ingests labeled rows for the (cluster-routed) model and
// stages them for the live refit. Backpressure — a buffer without room
// for the whole request — is 429 + Retry-After, mirroring the predict
// path's admission control.
func (s *Server) handleLearn(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.fail(w, http.StatusMethodNotAllowed, "POST labeled JSON or LIBSVM rows to /learn")
		return
	}
	job := s.readJob(w, r)
	if job == nil {
		return
	}
	s.resolve(w, r, job.body, true, func(name string, reg *Registry) {
		if reg == nil {
			s.fail(w, http.StatusNotFound, fmt.Sprintf("model %q has no registry on this replica", name))
		} else {
			s.learnLocal(w, r, name, reg, job)
		}
		s.putJob(job)
	})
}

// learnLocal parses the job's body and stages its rows; Offer copies
// them out of the pooled job.
func (s *Server) learnLocal(w http.ResponseWriter, r *http.Request, name string, reg *Registry, job *predictJob) {
	if err := job.parse(r, job.body, true); err != nil {
		s.fail(w, http.StatusBadRequest, err.Error())
		return
	}
	n := job.rows()
	if n == 0 {
		s.fail(w, http.StatusBadRequest, "no rows in request")
		return
	}
	// Dimensionality gate at ingest: rows wider than the serving model
	// would poison the whole refit dataset cycles later; reject them
	// while the client can still tell which request was wrong.
	if m := reg.Current(); m != nil && job.maxCol >= m.Features {
		s.fail(w, http.StatusBadRequest,
			fmt.Sprintf("feature index %d exceeds model dimensionality %d", job.maxCol+1, m.Features))
		return
	}
	buf, created := s.learn.buffer(name)
	if created && s.opt.OnLearn != nil {
		s.opt.OnLearn(name, reg, buf)
	}
	if !buf.Offer(job.rowPtr, job.colIdx, job.vals, job.labels) {
		s.met.learnRejected.Add(uint64(n))
		s.shedReply(w, fmt.Sprintf("learn buffer full (%d/%d rows)", buf.Len(), buf.Cap()))
		return
	}
	s.met.learnRows.Add(uint64(n))
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(learnResponse{Accepted: n, Buffered: buf.Len()}) //nolint:errcheck
}

// refitStreamHistory bounds the dataset RefitStream accumulates, as a
// multiple of the buffer capacity: old rows age out of the sliding
// window so an always-on learner cannot grow memory without bound.
const refitStreamHistory = 8

// RefitStream consumes a LearnBuffer into a rolling live refit: each
// cycle drains whatever rows arrived, appends them to a sliding window
// of recent training data, and runs one Refit publish cycle warm-
// started from the serving model. It returns when ctx is cancelled; a
// refit error is logged (RefitOptions.Log) and retried with fresh data
// rather than killing the learner.
func RefitStream(ctx context.Context, reg *Registry, buf *LearnBuffer, opt RefitOptions) error {
	every := opt.Every
	if every <= 0 {
		every = 2 * time.Second
	}
	maxRows := refitStreamHistory * buf.Cap()
	var window labeledRows
	wait := func(d time.Duration) bool {
		select {
		case <-ctx.Done():
			return false
		case <-time.After(d):
			return true
		}
	}
	for {
		window.append(buf.drain())
		if len(window.labels) == 0 {
			if !wait(every / 4) {
				return nil
			}
			continue
		}
		window.keepLast(maxRows)
		a, err := window.matrix(reg.Current())
		if err == nil {
			cycle := opt
			cycle.MaxPublishes = 1
			err = Refit(ctx, reg, a, window.labels, cycle)
		}
		if ctx.Err() != nil {
			return nil
		}
		if err != nil {
			if opt.Log != nil {
				fmt.Fprintf(opt.Log, "refit-stream: cycle failed: %v\n", err)
			}
			if !wait(every) {
				return nil
			}
		}
	}
}

// matrix views the rows as the refit matrix, sized to the serving
// model's dimensionality when one exists (Refit requires the match) and
// to the data's own width otherwise. It aliases f's arrays: it is valid
// until the next append or keepLast.
func (f *labeledRows) matrix(cur *Model) (*sparse.CSR, error) {
	n := 0
	for _, j := range f.colIdx {
		n = max(n, j+1)
	}
	if cur != nil {
		n = max(n, cur.Features)
	}
	return sparse.NewCSR(len(f.labels), n, f.rowPtr, f.colIdx, f.vals)
}
