package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
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

// LearnBuffer is a bounded, mutex-guarded staging area of labeled rows
// between the /learn handler and a refit consumer. Offers are
// all-or-nothing: a request's rows are accepted together or refused
// together, so a client never has to figure out which half of its
// batch made it in.
type LearnBuffer struct {
	mu      sync.Mutex
	capRows int
	cols    [][]int
	vals    [][]float64
	labels  []float64
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
	return len(l.labels)
}

// Offer appends the rows if they all fit, reporting whether they were
// taken. The slices are retained; callers must not reuse them.
func (l *LearnBuffer) Offer(cols [][]int, vals [][]float64, labels []float64) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.labels)+len(labels) > l.capRows {
		return false
	}
	l.cols = append(l.cols, cols...)
	l.vals = append(l.vals, vals...)
	l.labels = append(l.labels, labels...)
	return true
}

// Drain takes everything buffered, leaving the buffer empty.
func (l *LearnBuffer) Drain() (cols [][]int, vals [][]float64, labels []float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	cols, vals, labels = l.cols, l.vals, l.labels
	l.cols, l.vals, l.labels = nil, nil, nil
	return cols, vals, labels
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

// learnLocal parses the job's body and stages its rows. The buffer
// retains what it is offered, so the rows are copied out of the pooled
// job: one flat copy per array, cut into the per-row views Offer takes.
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
	colIdx, flat := slices.Clone(job.colIdx), slices.Clone(job.vals)
	cols, vals := make([][]int, n), make([][]float64, n)
	for i := range cols {
		lo, hi := job.rowPtr[i], job.rowPtr[i+1]
		cols[i], vals[i] = colIdx[lo:hi:hi], flat[lo:hi:hi]
	}
	if !buf.Offer(cols, vals, slices.Clone(job.labels)) {
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
	var cols [][]int
	var vals [][]float64
	var labels []float64
	wait := func(d time.Duration) bool {
		select {
		case <-ctx.Done():
			return false
		case <-time.After(d):
			return true
		}
	}
	for {
		c, v, b := buf.Drain()
		if len(b) == 0 && len(labels) == 0 {
			if !wait(every / 4) {
				return nil
			}
			continue
		}
		cols = append(cols, c...)
		vals = append(vals, v...)
		labels = append(labels, b...)
		if len(labels) > maxRows {
			drop := len(labels) - maxRows
			cols, vals, labels = cols[drop:], vals[drop:], labels[drop:]
		}
		a, err := assembleCSR(cols, vals, labels, reg.Current())
		if err == nil {
			cycle := opt
			cycle.MaxPublishes = 1
			err = Refit(ctx, reg, a, labels, cycle)
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

// assembleCSR builds the refit matrix from accumulated rows, sized to
// the serving model's dimensionality when one exists (Refit requires
// the match) and to the data's own width otherwise.
func assembleCSR(cols [][]int, vals [][]float64, labels []float64, cur *Model) (*sparse.CSR, error) {
	n := 0
	for _, row := range cols {
		for _, j := range row {
			if j+1 > n {
				n = j + 1
			}
		}
	}
	if cur != nil && cur.Features > n {
		n = cur.Features
	}
	rowPtr := make([]int, 1, len(labels)+1)
	var colIdx []int
	var flat []float64
	for r := range cols {
		colIdx = append(colIdx, cols[r]...)
		flat = append(flat, vals[r]...)
		rowPtr = append(rowPtr, len(flat))
	}
	return sparse.NewCSR(len(labels), n, rowPtr, colIdx, flat)
}
