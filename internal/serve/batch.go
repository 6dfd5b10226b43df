package serve

import (
	"fmt"
	"net/http"
	"slices"
	"time"

	"saco/internal/sparse"
)

// The micro-batcher. Concurrent /predict requests land as predictJobs
// on one bounded channel; the dispatcher goroutine takes one job and
// then whatever else is already queued (up to a row cap), without
// waiting for more, into per-model sparse matrices and makes one
// scoring call per model — the serving-side analogue of the solvers'
// batched Gram kernels, where one dispatch amortizes across many rows.
// A batch is what queued while the last one was scored: an idle server
// scores a lone request at once, and batches grow exactly when the
// server is busy.
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

// batcher is the dispatcher goroutine's own state, reused from batch to
// batch: the jobs of the batch being collected, the rows and scores a
// group of more than one job is gathered into, and the matrix header
// a group is scored through.
type batcher struct {
	jobs []*predictJob
	asm  rowSet
	y    []float64
	a    sparse.CSR
}

// holdBatch, when set, runs on the dispatcher after it takes a batch's
// first job and before it drains the queue. Tests set it before
// NewServer (which hands it to its dispatcher) to stall scoring, so
// that jobs queue behind a busy dispatcher by construction rather than
// by timing. It is nil outside tests.
var holdBatch func()

// dispatch is the batcher loop: take one job, drain what is already
// queued behind it (up to MaxBatch rows, never waiting), shed the
// stale, score the rest.
func (s *Server) dispatch(hold func()) {
	defer close(s.done)
	b := &batcher{}
	for {
		select {
		case <-s.stop:
			return
		case j := <-s.jobs:
			if hold != nil {
				hold()
			}
			b.jobs = append(b.jobs[:0], j)
		drain:
			for rows := j.rows(); rows < s.opt.MaxBatch; {
				select {
				case j2 := <-s.jobs:
					b.jobs = append(b.jobs, j2)
					rows += j2.rows()
				default:
					break drain
				}
			}
			batch := s.shedStale(b.jobs)
			if len(batch) == 0 {
				continue
			}
			begin := time.Now()
			s.scoreBatch(b, batch)
			s.met.batchLatency.Observe(time.Since(begin).Seconds())
		}
	}
}

// A job belongs to its handler again the moment its reply is sent — the
// handler may recycle it at once — so nothing below reads a job after
// sending on its resp.

// shedStale drops jobs that waited past MaxQueueDelay, answering each
// with 429 + Retry-After: their latency budget is spent, so kernel time
// is better given to the rest of the batch.
func (s *Server) shedStale(batch []*predictJob) []*predictJob {
	if s.opt.MaxQueueDelay <= 0 {
		return batch
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
			continue
		}
		keep = append(keep, j)
	}
	return keep
}

// scoreBatch partitions the batch by registry — a cluster replica's
// batch can mix models — and scores each group against one atomic load
// of its registry. Groups go in order of first appearance and keep
// arrival order inside (grouping must be deterministic for the
// batched==sequential contract's sake); a batch on one registry, the
// usual case, is one group with nothing moved or allocated.
func (s *Server) scoreBatch(b *batcher, batch []*predictJob) {
	for len(batch) > 0 {
		reg, n := batch[0].reg, 0
		var rest []*predictJob
		for _, j := range batch {
			if j.reg == reg {
				batch[n] = j
				n++
			} else {
				rest = append(rest, j)
			}
		}
		s.scoreGroup(b, reg, batch[:n])
		batch = rest
	}
}

// scoreGroup scores every job in the group against one atomic load of
// the group's serving model.
func (s *Server) scoreGroup(b *batcher, reg *Registry, batch []*predictJob) {
	m := reg.Current()
	if m == nil {
		for _, j := range batch {
			j.resp <- predictResult{status: http.StatusServiceUnavailable, errText: "no model loaded yet"}
		}
		return
	}

	// Per-job dimensionality check against this batch's model snapshot;
	// oversized requests fail alone, not the whole batch.
	valid := batch[:0]
	rows := 0
	for _, j := range batch {
		if j.maxCol >= m.Features {
			j.resp <- predictResult{
				status:  http.StatusBadRequest,
				errText: fmt.Sprintf("feature index %d exceeds model dimensionality %d (model version %d)", j.maxCol+1, m.Features, m.Version),
			}
			continue
		}
		valid = append(valid, j)
		rows += j.rows()
	}
	if len(valid) == 0 {
		return
	}

	// The batch matrix and the one kernel call. A job alone in its group
	// (every full-sized request) is scored where it lies; several are
	// gathered into the batcher's buffers and their scores copied back.
	rowPtr, colIdx, vals, y := valid[0].rowPtr, valid[0].colIdx, valid[0].vals, valid[0].scores
	if asm := &b.asm; len(valid) > 1 {
		asm.rowPtr, asm.colIdx, asm.vals = append(asm.rowPtr[:0], 0), asm.colIdx[:0], asm.vals[:0]
		for _, j := range valid {
			for _, end := range j.rowPtr[1:] {
				asm.rowPtr = append(asm.rowPtr, len(asm.vals)+end)
			}
			asm.colIdx = append(asm.colIdx, j.colIdx...)
			asm.vals = append(asm.vals, j.vals...)
		}
		b.y = slices.Grow(b.y[:0], rows)[:rows]
		rowPtr, colIdx, vals, y = asm.rowPtr, asm.colIdx, asm.vals, b.y
	}
	// The header lives in the batcher, so a batch allocates nothing;
	// Check is NewCSR's validation, and Score keeps no reference.
	b.a = sparse.CSR{M: rows, N: m.Features, RowPtr: rowPtr, ColIdx: colIdx, Val: vals}
	err := b.a.Check()
	if err == nil {
		err = m.Score(&b.a, 1, y)
	}
	b.a = sparse.CSR{} // hold no job's arrays past its reply
	res := predictResult{model: m}
	if err != nil {
		// Assembly or scoring rejected the batch wholesale (malformed rows
		// slipping past parsing would be a server bug; report, don't hang).
		res = predictResult{status: http.StatusInternalServerError, errText: err.Error()}
	} else {
		s.met.batches.Inc()
		s.met.rows.Add(uint64(rows))
		s.met.batchRows.Observe(float64(rows))
	}
	for _, j := range valid {
		if err == nil && len(valid) > 1 {
			y = y[copy(j.scores, y):]
		}
		j.resp <- res
	}
}
