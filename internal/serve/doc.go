// Package serve is the lock-free model-serving layer: it turns the
// solvers' coefficient vectors into versioned model artifacts and
// answers prediction traffic against them while a background trainer
// refits the live model, and the scoring path never takes a lock.
// Three mechanisms compose here:
//
//   - Registry holds the current model behind an atomic pointer.
//     Readers (request handlers) load it wait-free; a publish is one
//     pointer swap, so in-flight requests always score against exactly
//     one immutable model version — never a torn mix of two.
//   - Server micro-batches concurrent /predict requests into a single
//     sparse matrix and scores it with one call, amortizing dispatch
//     across the batch exactly like the solvers' Gram kernels.
//   - Refit runs the sequential core.Stepper open-endedly and, from its
//     Observer, publishes the live iterate as a new registry version on
//     a fixed cadence. Each version is bitwise the core.Lasso / core.SVM
//     solve at the iteration count its log line names; the immutable
//     model is the only hand-off.
//
// # Model file format (.sacm, version 1)
//
// A model is a sparse coefficient vector plus provenance, stored
// little-endian with a trailing checksum, encoded and decoded through
// internal/wire (its Writer, its bounded Reader and its CRC64 trailer):
//
//	offset  size        field
//	0       8           magic "SACOMDL1"
//	8       4           format version (uint32, = 1)
//	12      4           problem kind (uint32: 0 raw, 1 lasso, 2 svm; 3, pegasos, is refused)
//	16      8           features n (uint64)
//	24      8           training rows m (uint64, informational)
//	32      8           lambda (float64 bits)
//	40      8           model version (uint64; registry sequence, 0 = unpublished)
//	48      8           nnz (uint64)
//	56      8·nnz       nonzero coordinate indices (uint64, strictly increasing, < n)
//	56+8·nnz  8·nnz     nonzero values (float64 bits)
//	...     8           CRC-64/ECMA of every preceding byte
//
// There is one load path: LoadModelFile refuses a file over the reader
// cap from its size alone, reads the rest into the heap, and hands the
// bytes to the one decoder (decodeModel), which copies every index and
// value out. It rejects bad magic, checksum mismatches, unknown
// versions, an nnz the bytes left cannot hold, trailing bytes, and
// indices out of order or out of range — a corrupt or half-written file
// can never become the serving model (WriteModelFile additionally
// publishes via wire.WriteFile's temp file + rename, so a watcher never
// even opens a partial file). The bytes are those of every earlier
// build: a version-1 file written before internal/wire existed loads and
// re-encodes to itself. The old text format (one value per line) is
// refused with the migration: re-save with `sasolve -out model.sacm`.
// So is kind 3, written by the removed Pegasos trainer: retrain with
// `sasolve -task svm -out`.
//
// A model may claim at most maxModelBytes/4 features (2²⁹): scoring
// keeps a 4-byte position per feature, and the cap holds that map to
// the size of the largest file the reader admits. validate refuses a
// larger claim with a TooManyFeaturesError naming the count and the
// cap, on every load path and before anything is sized by it — an
// 80-byte file claiming 2⁴⁰ features is a fast error, not a 4 TB
// allocation.
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
// CSR arrays (rowPtr/colIdx/vals) straight from those bytes, and refuses
// a NaN or Inf input with a 400 naming the line; the JSON
// body fills the same arrays. The job goes on the dispatcher's queue
// and the handler waits on the job's reply channel. The dispatcher
// scores a job that is alone in its group (every request of MaxBatch
// rows or more, and any that found nothing queued behind it) where it
// lies, into the job's scores; jobs sharing a batch are gathered into
// the dispatcher's own reused buffers and their scores copied back. The handler appends the reply to the job's output
// buffer — byte for byte what encoding/json would write — sends it in
// one Write, and puts the job back. A score JSON cannot carry (an
// overflow to ±Inf, or NaN from it) makes the reply a 422 naming the row.
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
// # Scoring by position
//
// Model.Score reads each request entry once. A model builds, on its
// first Score, a position map pos over [0, Features): pos[j] is feature
// j's offset in Idx/Val, −1 where the model has no coefficient. The map
// is built through a sync.Once after the model is validated (a
// malformed Idx/Val is an error from Score, not a panic) and costs
// 4·Features bytes per live version; the registry drops it with the
// version. A row's score is Σ v·Val[pos[j]] over the row's own entries
// (j, v) in ascending j, from +0, skipping the absent features — not
// adding v·0, which would turn an Inf entry into a NaN. Those are the
// products the two-pointer merge (simd.MergeDot, the tests' oracle)
// forms, in its order, so the bits are the merge's, at O(nnz(row)) per
// row instead of O(nnz(row) + nnz(model)). A batch is one sequential
// pass: 256 rows of 48 entries are about 12 k lookups, too little work
// to pay for a fork.
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
