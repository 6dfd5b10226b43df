package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"

	"saco/internal/core"
	"saco/internal/mat"
	"saco/internal/mpi"
)

// span is one timed call into a layer, recorded from this package around
// the layer's public entry point. Spans of one op share Op; ID is the
// span's position in the trace and Parent the ID of the span that made
// the call (-1 for an op's root). N is the count taken at the same
// boundary: Gram entries computed, words sent, rows scored.
type span struct {
	ID     int32  `json:"id"`
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Rank   int    `json:"rank"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	N      int64  `json:"n,omitempty"`
}

func (s *span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// recorder keeps spans in memory; nothing is written until the run ends.
// One recorder belongs to one goroutine: dist ranks get a recorder each
// and the driver merges them after the world has returned.
type recorder struct {
	epoch time.Time
	spans []span
	op    int
	rank  int
}

// begin opens a span under parent (-1 for none) and returns its ID, its
// index in r.spans.
func (r *recorder) begin(name string, parent int32) int32 {
	r.spans = append(r.spans, span{
		Name: name, Op: r.op, Rank: r.rank, Parent: parent,
		Start: int64(time.Since(r.epoch)),
	})
	return int32(len(r.spans) - 1)
}

// end closes span id and records the work count n taken at the boundary.
func (r *recorder) end(id int32, n int64) {
	r.spans[id].End = int64(time.Since(r.epoch))
	r.spans[id].N = n
}

// merge appends the spans of another goroutine's recorder (a rank's, a
// load client's), which are all roots there, under parent.
func (r *recorder) merge(o *recorder, parent int32) {
	for _, s := range o.spans {
		s.Parent = parent
		r.spans = append(r.spans, s)
	}
}

// writeFile writes the spans as one JSON object per line.
func (r *recorder) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range r.spans {
		r.spans[i].ID = int32(i)
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerKey names the spans of one layer entry point on one rank.
type layerKey struct {
	name string
	rank int
}

// layerTotal is the busy time, call count and work count of one layerKey
// within one op.
type layerTotal struct {
	ms    float64
	calls int64
	n     int64
}

// opTotals sums the spans of every op by layerKey and returns one map
// per op, in op order.
func (r *recorder) opTotals() []map[layerKey]layerTotal {
	var out []map[layerKey]layerTotal
	index := map[int]int{}
	for i := range r.spans {
		s := &r.spans[i]
		k, ok := index[s.Op]
		if !ok {
			k = len(out)
			index[s.Op] = k
			out = append(out, map[layerKey]layerTotal{})
		}
		key := layerKey{s.Name, s.Rank}
		t := out[k][key]
		t.ms += s.ms()
		t.calls++
		t.n += s.N
		out[k][key] = t
	}
	return out
}

// tracedCols decorates the column matrix handed to core.Lasso. It
// forwards every call unchanged and implements nothing beyond
// core.ColMatrix, which is why the traced solves run the sequential
// backend: no optional capability of the wrapped matrix is hidden.
type tracedCols struct {
	a      core.ColMatrix
	rec    *recorder
	parent int32
}

func (t *tracedCols) Dims() (int, int)        { return t.a.Dims() }
func (t *tracedCols) ColNormSq(j int) float64 { return t.a.ColNormSq(j) }

func (t *tracedCols) ColTMulVec(cols []int, v, dst []float64) {
	id := t.rec.begin("sparse.ColTMulVec", t.parent)
	t.a.ColTMulVec(cols, v, dst)
	t.rec.end(id, int64(len(cols)))
}

func (t *tracedCols) ColMulAdd(cols []int, coef, v []float64) {
	id := t.rec.begin("sparse.ColMulAdd", t.parent)
	t.a.ColMulAdd(cols, coef, v)
	t.rec.end(id, int64(len(cols)))
}

func (t *tracedCols) ColGram(cols []int, dst *mat.Dense) {
	id := t.rec.begin("sparse.ColGram", t.parent)
	t.a.ColGram(cols, dst)
	t.rec.end(id, gramEntries(len(cols)))
}

func (t *tracedCols) MulVec(x, y []float64) {
	id := t.rec.begin("sparse.MulVec", t.parent)
	t.a.MulVec(x, y)
	t.rec.end(id, 1)
}

// tracedRows is the row-access counterpart handed to core.SVM.
type tracedRows struct {
	a      core.RowMatrix
	rec    *recorder
	parent int32
}

func (t *tracedRows) Dims() (int, int)        { return t.a.Dims() }
func (t *tracedRows) RowNormSq(i int) float64 { return t.a.RowNormSq(i) }

func (t *tracedRows) RowMulVec(rows []int, x, dst []float64) {
	id := t.rec.begin("sparse.RowMulVec", t.parent)
	t.a.RowMulVec(rows, x, dst)
	t.rec.end(id, int64(len(rows)))
}

func (t *tracedRows) RowTAxpy(row int, alpha float64, x []float64) {
	id := t.rec.begin("sparse.RowTAxpy", t.parent)
	t.a.RowTAxpy(row, alpha, x)
	t.rec.end(id, 1)
}

func (t *tracedRows) RowGram(rows []int, dst *mat.Dense) {
	id := t.rec.begin("sparse.RowGram", t.parent)
	t.a.RowGram(rows, dst)
	t.rec.end(id, gramEntries(len(rows)))
}

func (t *tracedRows) MulVec(x, y []float64) {
	id := t.rec.begin("sparse.MulVec", t.parent)
	t.a.MulVec(x, y)
	t.rec.end(id, 1)
}

// gramEntries is the number of distinct entries of a symmetric k×k Gram
// matrix — the work unit of the Gram layer.
func gramEntries(k int) int64 { return int64(k) * int64(k+1) / 2 }

// tracedTransport decorates one rank's mpi.Transport through
// dist.Options.WrapTransport. A transport is owned by its rank's
// goroutine, so each decorator writes to a recorder of its own.
type tracedTransport struct {
	mpi.Transport
	rec *recorder
}

func (t *tracedTransport) Send(dst int, msg mpi.Message) error {
	id := t.rec.begin("mpi.Send", -1)
	err := t.Transport.Send(dst, msg)
	t.rec.end(id, int64(len(msg.Data)))
	return err
}

func (t *tracedTransport) Recv(src int) (mpi.Message, error) {
	id := t.rec.begin("mpi.Recv", -1)
	msg, err := t.Transport.Recv(src)
	t.rec.end(id, int64(len(msg.Data)))
	return msg, err
}
