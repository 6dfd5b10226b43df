package serve

import (
	"fmt"
	"net/http"
	"time"

	"saco/internal/sparse"
)

// The micro-batcher. Concurrent /predict requests land as predictJobs
// on one bounded channel; the dispatcher goroutine coalesces whatever
// arrives within a short window (or until a row cap) into per-model
// sparse matrices and makes one batched kernel call per model on the
// persistent worker pool — the serving-side analogue of the solvers'
// batched Gram kernels, where one dispatch amortizes across many rows.
//
// Correctness under hot swaps is by construction: the dispatcher loads
// each registry pointer once per batch group and scores every row of
// the group against that one immutable model, so no request can ever
// see a mix of two versions, and the response reports which version
// scored it.
//
// The same queue is the admission-control surface: handlers enqueue
// non-blocking (full queue = immediate 429), and when MaxQueueDelay is
// set the dispatcher sheds jobs that already overstayed it before
// spending kernel time on them.

// predictJob is one request's parsed rows plus its reply channel.
type predictJob struct {
	reg    *Registry // the model registry this job scores against
	cols   [][]int   // per row: 0-based, strictly increasing
	vals   [][]float64
	maxCol int       // largest index across rows, -1 when all rows empty
	enq    time.Time // when the handler enqueued the job (shedding deadline)
	resp   chan predictResult
}

// predictResult is what the dispatcher sends back: scores against one
// model version, or an HTTP-ready error.
type predictResult struct {
	scores  []float64
	model   *Model
	status  int // non-zero = error
	errText string
}

// dispatch is the batcher loop: take one job, linger BatchWindow for
// companions (up to MaxBatch rows), shed the stale, score the rest.
func (s *Server) dispatch() {
	defer close(s.done)
	for {
		select {
		case <-s.stop:
			return
		case j := <-s.jobs:
			batch := []*predictJob{j}
			rows := len(j.cols)
			if rows < s.opt.MaxBatch {
				timer := time.NewTimer(s.opt.BatchWindow)
			collect:
				for rows < s.opt.MaxBatch {
					select {
					case j2 := <-s.jobs:
						batch = append(batch, j2)
						rows += len(j2.cols)
					case <-timer.C:
						break collect
					}
				}
				timer.Stop()
			}
			batch, rows = s.shedStale(batch, rows)
			if len(batch) == 0 {
				continue
			}
			begin := time.Now()
			s.scoreBatch(batch)
			s.met.batchLatency.Observe(time.Since(begin).Seconds())
		}
	}
}

// shedStale drops jobs that waited past MaxQueueDelay, answering each
// with 429 + Retry-After: their latency budget is spent, so kernel time
// is better given to the rest of the batch.
func (s *Server) shedStale(batch []*predictJob, rows int) ([]*predictJob, int) {
	if s.opt.MaxQueueDelay <= 0 {
		return batch, rows
	}
	now := time.Now()
	keep := batch[:0]
	for _, j := range batch {
		if now.Sub(j.enq) > s.opt.MaxQueueDelay {
			s.met.shed.Inc()
			j.resp <- predictResult{
				status:  http.StatusTooManyRequests,
				errText: fmt.Sprintf("overloaded: job queued longer than %v", s.opt.MaxQueueDelay),
			}
			rows -= len(j.cols)
			continue
		}
		keep = append(keep, j)
	}
	return keep, rows
}

// scoreBatch partitions the batch by registry — a cluster replica's
// batch can mix models — preserving arrival order, and scores each
// group against one atomic load of its registry.
func (s *Server) scoreBatch(batch []*predictJob) {
	// First-appearance order, not map iteration: grouping must be
	// deterministic for the batched==sequential contract's sake.
	var order []*Registry
	groups := make(map[*Registry][]*predictJob, 1)
	for _, j := range batch {
		if _, ok := groups[j.reg]; !ok {
			order = append(order, j.reg)
		}
		groups[j.reg] = append(groups[j.reg], j)
	}
	for _, reg := range order {
		s.scoreGroup(reg, groups[reg])
	}
}

// scoreGroup scores every job in the group against one atomic load of
// the group's serving model.
func (s *Server) scoreGroup(reg *Registry, batch []*predictJob) {
	m := reg.Current()
	if m == nil {
		for _, j := range batch {
			j.resp <- predictResult{status: http.StatusServiceUnavailable, errText: "no model loaded yet"}
		}
		return
	}

	// Per-job dimensionality check against this batch's model snapshot;
	// oversized requests fail alone, not the whole batch.
	valid := batch[:0:0]
	validRows := 0
	for _, j := range batch {
		if j.maxCol >= m.Features {
			j.resp <- predictResult{
				status:  http.StatusBadRequest,
				errText: fmt.Sprintf("feature index %d exceeds model dimensionality %d (model version %d)", j.maxCol+1, m.Features, m.Version),
			}
			continue
		}
		valid = append(valid, j)
		validRows += len(j.cols)
	}
	if len(valid) == 0 {
		return
	}

	// Assemble the batch matrix and make the one kernel call.
	rowPtr := make([]int, 1, validRows+1)
	var colIdx []int
	var vals []float64
	for _, j := range valid {
		for r := range j.cols {
			colIdx = append(colIdx, j.cols[r]...)
			vals = append(vals, j.vals[r]...)
			rowPtr = append(rowPtr, len(vals))
		}
	}
	a, err := sparse.NewCSR(validRows, m.Features, rowPtr, colIdx, vals)
	if err == nil {
		y := make([]float64, validRows)
		if err = m.Score(a, s.opt.Workers, y); err == nil {
			off := 0
			for _, j := range valid {
				j.resp <- predictResult{scores: y[off : off+len(j.cols)], model: m}
				off += len(j.cols)
			}
			s.met.batches.Inc()
			s.met.rows.Add(uint64(validRows))
			s.met.batchRows.Observe(float64(validRows))
			return
		}
	}
	// Assembly or scoring rejected the batch wholesale (malformed rows
	// slipping past parsing would be a server bug; report, don't hang).
	for _, j := range valid {
		j.resp <- predictResult{status: http.StatusInternalServerError, errText: err.Error()}
	}
}
