// Package serve is the lock-free model-serving layer: it turns the
// solvers' coefficient vectors into versioned model artifacts and
// answers prediction traffic against them while a background trainer
// refits the live model without ever taking a lock.
//
// The paper's core trade — replace synchronization with atomic updates
// that stay convergent — applies to serving directly. Three lock-free
// mechanisms compose here:
//
//   - Registry holds the current model behind an atomic pointer.
//     Readers (request handlers) load it wait-free; a publish is one
//     pointer swap, so in-flight requests always score against exactly
//     one immutable model version — never a torn mix of two.
//   - Server micro-batches concurrent /predict requests into a single
//     sparse matrix and scores it with one batched kernel call on the
//     persistent internal/runtime pool, amortizing dispatch across the
//     batch exactly like the solvers' Gram kernels.
//   - Refit drives the exported core.AsyncLasso / core.AsyncSVM HOGWILD
//     steppers against a live atomic coefficient vector and snapshots
//     it into a new registry version on a fixed cadence: training and
//     serving share one lock-free vector, with immutable snapshots as
//     the only hand-off.
//
// # Model file format (.sacm, version 1)
//
// A model is a sparse coefficient vector plus provenance, stored
// little-endian with a trailing checksum:
//
//	offset  size        field
//	0       8           magic "SACOMDL1"
//	8       4           format version (uint32, = 1)
//	12      4           problem kind (uint32: 0 raw, 1 lasso, 2 svm, 3 pegasos)
//	16      8           features n (uint64)
//	24      8           training rows m (uint64, informational)
//	32      8           lambda (float64 bits)
//	40      8           model version (uint64; registry sequence, 0 = unpublished)
//	48      8           nnz (uint64)
//	56      8·nnz       nonzero coordinate indices (uint64, strictly increasing, < n)
//	56+8·nnz  8·nnz     nonzero values (float64 bits)
//	...     8           CRC-64/ECMA of every preceding byte
//
// One decoder (decodeModel) backs every load — LoadModelFile
// and the mmap mode, which differs only in aliasing the value section
// instead of copying it. It rejects bad magic, unknown versions,
// truncated or oversized payloads, checksum mismatches, and indices out
// of order or out of range — a corrupt or half-written file can never
// become the serving model (WriteModelFile additionally publishes via
// stream.WriteFileAtomic's temp file + rename, so a watcher never even
// opens a partial file). The text format (one "%.17g" value per line) is
// write-only — `sasolve -out model.txt` still emits it for people to
// read — and a text file offered as a model is refused with the
// migration: re-save with `sasolve -out model.sacm`.
//
// Registry versions are encoded in the file name (model-%08d.sacm);
// the watcher polls the directory and hot-swaps the pointer when a
// higher version appears.
//
// # Request path
//
// A LIBSVM /predict request is one pass over its bytes, with no heap
// allocation per row or per token:
//
//	read → tokenize → enqueue → score → append-encode
//
// The handler takes a predictJob off the server's bounded free list and
// reads the body into the job's buffer (sized from Content-Length,
// behind http.MaxBytesReader: only an oversized body is 413, any other
// read failure is 400). libsvm.RowParser.ParseBytes — the one LIBSVM
// tokenizer; serve splits no fields of its own — fills the job's flat
// CSR arrays (rowPtr/colIdx/vals) straight from those bytes; the JSON
// body fills the same arrays. The job goes on the dispatcher's queue
// and the handler waits on the job's reply channel. The dispatcher
// scores a job that is alone in its group (every request of MaxBatch
// rows or more, and any that found no companion in the window) where it
// lies, into the job's scores; jobs sharing a batch are gathered into
// the dispatcher's own reused buffers and their scores copied back. The handler appends the reply to the job's output
// buffer — byte for byte what encoding/json would write — sends it in
// one Write, and puts the job back. A score JSON cannot carry (NaN,
// ±Inf) makes the reply a 422 naming the row.
//
// Ownership: every buffer belongs to the job, and the job to exactly one
// goroutine at a time — the handler until the enqueue, the dispatcher
// until it sends on the reply channel (it reads nothing of a job after
// that send), the handler again after the receive. Only the handler
// that received a job's result, or never enqueued it, recycles it; a
// handler answering 503 on shutdown, and one whose request was
// forwarded to another replica, drop theirs instead. The free list holds
// at most jobFreeSlots jobs and refuses one grown past
// maxPooledJobBytes. /learn runs the same read and parse on a pooled
// job; LearnBuffer.Offer copies the rows into its own flat arrays.
//
// # Ops surface
//
// Server.Handler mounts /predict, /stats, /learn and /cluster* on the
// internal/ops mux, which supplies /healthz, /readyz (both 503 until
// every owned model is servable) and /metrics. The server always counts
// into a metrics.Registry — Options.Metrics, or its own when that is
// nil — and that registry is the only ledger: /metrics encodes it as
// Prometheus text and /stats reads the same counters into JSON.
package serve
