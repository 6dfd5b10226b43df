package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"saco/internal/libsvm"
)

// The request path's state and its two ends: reading and parsing a body
// into a pooled job, and append-encoding the reply. The package doc's
// "Request path" section has the whole walk and the ownership rules.

// rowSet is a parsed request body in flat CSR form: row r is
// colIdx/vals[rowPtr[r]:rowPtr[r+1]], columns 0-based and strictly
// increasing. Its arrays are reused from one request to the next.
type rowSet struct {
	rowPtr []int
	colIdx []int
	vals   []float64
	labels []float64 // one per row, filled for /learn only
	maxCol int       // largest index across rows, -1 when all rows empty
	parser libsvm.RowParser
}

func (rs *rowSet) rows() int { return len(rs.rowPtr) - 1 }

// parse fills the set from a request body, JSON or LIBSVM lines by the
// request's Content-Type; withLabels is the /learn contract of one label
// per row.
func (rs *rowSet) parse(r *http.Request, body []byte, withLabels bool) error {
	rs.rowPtr = append(rs.rowPtr[:0], 0)
	rs.colIdx, rs.vals, rs.labels, rs.maxCol = rs.colIdx[:0], rs.vals[:0], rs.labels[:0], -1
	if strings.HasPrefix(r.Header.Get("Content-Type"), "application/json") {
		return rs.parseJSON(body, withLabels)
	}
	return rs.parseLIBSVM(body, withLabels)
}

// jsonRow is one request row in the JSON body: parallel 1-based
// indices (LIBSVM convention) and values.
type jsonRow struct {
	Indices []int     `json:"indices"`
	Values  []float64 `json:"values"`
}

// jsonPredictRequest is the JSON body: {"rows": [{"indices": [1,7],
// "values": [0.5, 1.0]}, ...]}. /learn adds a parallel "labels" array.
type jsonPredictRequest struct {
	Rows   []jsonRow `json:"rows"`
	Labels []float64 `json:"labels,omitempty"`
}

func (rs *rowSet) parseJSON(body []byte, withLabels bool) error {
	var req jsonPredictRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return fmt.Errorf("bad JSON body: %v", err)
	}
	if withLabels && len(req.Labels) != len(req.Rows) {
		return fmt.Errorf("%d labels for %d rows (learn requires one label per row)", len(req.Labels), len(req.Rows))
	}
	for r, row := range req.Rows {
		if len(row.Indices) != len(row.Values) {
			return fmt.Errorf("row %d: %d indices for %d values", r, len(row.Indices), len(row.Values))
		}
		prev := 0
		for _, idx := range row.Indices {
			if idx < 1 {
				return fmt.Errorf("row %d: index %d (indices are 1-based, LIBSVM convention)", r, idx)
			}
			if idx <= prev {
				return fmt.Errorf("row %d: index %d out of order after %d (must be strictly increasing)", r, idx, prev)
			}
			prev = idx
			rs.colIdx = append(rs.colIdx, idx-1)
		}
		rs.maxCol = max(rs.maxCol, prev-1)
		rs.vals = append(rs.vals, row.Values...)
		rs.rowPtr = append(rs.rowPtr, len(rs.vals))
	}
	rs.labels = append(rs.labels, req.Labels...)
	return nil
}

var newline = []byte{'\n'}

// parseLIBSVM fills the set from LIBSVM-format lines, one pass over the
// body. A leading label field is accepted and ignored on /predict (so
// training files can be replayed against it verbatim) and lines of bare
// index:value pairs work too; withLabels requires the label. The row
// grammar, label detection included, is libsvm.RowParser's.
func (rs *rowSet) parseLIBSVM(body []byte, withLabels bool) error {
	for lineNo := 1; len(body) > 0; lineNo++ {
		var line []byte
		line, body, _ = bytes.Cut(body, newline)
		if libsvm.SkipBytes(line) {
			continue
		}
		label, labeled, err := rs.parser.ParseBytes(line, lineNo, true)
		if withLabels && !labeled {
			return fmt.Errorf("line %d: learn rows require a leading label", lineNo)
		}
		if err != nil {
			return err
		}
		rs.colIdx = append(rs.colIdx, rs.parser.Cols...)
		rs.vals = append(rs.vals, rs.parser.Vals...)
		rs.rowPtr = append(rs.rowPtr, len(rs.vals))
		rs.maxCol = max(rs.maxCol, rs.parser.MaxCol())
		if withLabels {
			rs.labels = append(rs.labels, label)
		}
	}
	return nil
}

// predictJob is one request's state from the first body byte to the
// last reply byte: the raw body, its parsed rows, the reply channel the
// dispatcher answers on, the scores it writes and the encoded reply.
type predictJob struct {
	rowSet
	reg    *Registry // the model registry this job scores against
	enq    time.Time // when the handler enqueued the job (shedding deadline)
	resp   chan predictResult
	body   []byte
	scores []float64 // one per row, sized by the handler, written by the dispatcher before it replies
	out    []byte
}

// predictResult is the dispatcher's verdict on a job: its scores slice
// now holds the scores against model, or an HTTP-ready error.
type predictResult struct {
	model   *Model
	status  int // non-zero = error
	errText string
}

// The free list of request state. It is a bounded channel, not a
// sync.Pool, for sparse.gramFree's reason: a GC cycle would empty a
// pool and the next request would grow every buffer again. More than
// jobFreeSlots requests in flight allocate theirs; a job that grew past
// maxPooledJobBytes (one huge body) is dropped, so an idle server
// retains at most jobFreeSlots × maxPooledJobBytes.
const (
	jobFreeSlots      = 32
	maxPooledJobBytes = 4 << 20
)

// putJob recycles a job. The caller must be the only holder: a job the
// dispatcher has not answered yet is never put back.
func (s *Server) putJob(j *predictJob) {
	words := cap(j.rowPtr) + cap(j.colIdx) + cap(j.vals) + cap(j.labels) + cap(j.parser.Cols) + cap(j.parser.Vals) + cap(j.scores)
	if cap(j.body)+cap(j.out)+8*words > maxPooledJobBytes {
		return
	}
	select {
	case s.free <- j:
	default:
	}
}

// readJob reads the request body, under the size cap, into a job off
// the free list. A failure is reported to the client here and returns
// nil. The body buffer is grown up front to a known Content-Length — as
// far as a pooled job may keep, so a header alone cannot claim more.
func (s *Server) readJob(w http.ResponseWriter, r *http.Request) *predictJob {
	if r.ContentLength > s.opt.MaxBodyBytes {
		s.fail(w, http.StatusRequestEntityTooLarge, "request body too large")
		return nil
	}
	var job *predictJob
	select {
	case job = <-s.free:
	default:
		job = &predictJob{resp: make(chan predictResult, 1)}
	}
	b := bytes.NewBuffer(job.body[:0])
	b.Grow(int(min(r.ContentLength, maxPooledJobBytes)) + bytes.MinRead) // MinRead: room for the read that reports EOF
	_, err := b.ReadFrom(http.MaxBytesReader(w, r.Body, s.opt.MaxBodyBytes))
	if job.body = b.Bytes(); err == nil {
		return job
	}
	if tooLarge := (*http.MaxBytesError)(nil); errors.As(err, &tooLarge) {
		s.fail(w, http.StatusRequestEntityTooLarge, "request body too large")
	} else {
		s.fail(w, http.StatusBadRequest, "unreadable body: "+err.Error())
	}
	s.putJob(job)
	return nil
}

// reply writes the dispatcher's verdict on job: the error it carries, or
// the scores encoded into the job's reply buffer and sent in one Write.
func (s *Server) reply(w http.ResponseWriter, job *predictJob, res predictResult) {
	if res.status != 0 {
		if res.status == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", retryAfterSeconds)
		}
		s.fail(w, res.status, res.errText)
		return
	}
	var bad int
	if job.out, bad = appendPredictResponse(job.out[:0], res.model, job.scores); bad >= 0 {
		s.fail(w, http.StatusUnprocessableEntity, fmt.Sprintf(
			"row %d (0-based) scores %v against model version %d, which JSON cannot carry: check the row's values",
			bad, job.scores[bad], res.model.Version))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(job.out) //nolint:errcheck // client gone = nothing to do
}

// appendPredictResponse appends the /predict reply
//
//	{"model_version":V,"scores":[…],"labels":[…]}\n
//
// exactly as encoding/json writes it (the tests hold it to that byte for
// byte): V is the one registry version every score was computed against,
// scores are the decision values A·x, one per request row, and labels,
// present only for classifier models, are sign(score) as 1 or -1. JSON
// has no NaN or ±Inf: bad is the first row whose score is one (the reply
// is then unusable), -1 when there is none.
func appendPredictResponse(b []byte, m *Model, scores []float64) (_ []byte, bad int) {
	b = strconv.AppendUint(append(b, `{"model_version":`...), m.Version, 10)
	b = append(b, `,"scores":[`...)
	for i, v := range scores {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			return b, i
		}
		if i > 0 {
			b = append(b, ',')
		}
		// encoding/json's number form: ES6 — 'f' inside [1e-6, 1e21), else
		// 'e' with a two-digit negative exponent's leading zero dropped.
		if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
			b = strconv.AppendFloat(b, v, 'e', -1, 64)
			if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
				b[n-2] = b[n-1]
				b = b[:n-1]
			}
		} else {
			b = strconv.AppendFloat(b, v, 'f', -1, 64)
		}
	}
	b = append(b, ']')
	if m.Kind.Classifier() {
		b = append(b, `,"labels":[`...)
		for i, v := range scores {
			if i > 0 {
				b = append(b, ',')
			}
			if v < 0 {
				b = append(b, '-')
			}
			b = append(b, '1')
		}
		b = append(b, ']')
	}
	return append(b, '}', '\n'), -1
}
