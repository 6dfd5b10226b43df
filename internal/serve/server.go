package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"time"

	"saco/internal/metrics"
	"saco/internal/ops"
	"saco/internal/simd"
)

// Options tunes the serving layer; the zero value is usable.
type Options struct {
	// MaxBatch caps the rows coalesced into one scoring call
	// (default 256). A single oversized request still scores in one
	// call of its own.
	MaxBatch int
	// BatchWindow is how long the dispatcher lingers for companion
	// requests after the first of a batch (default 500µs). Shorter
	// windows favour latency, longer ones throughput.
	BatchWindow time.Duration
	// Workers is the kernel width of the batched scoring call on the
	// persistent pool (0 = GOMAXPROCS, 1 = sequential).
	Workers int
	// MaxBodyBytes caps a /predict request body (default 32 MiB).
	MaxBodyBytes int64

	// QueueDepth bounds the dispatcher's job queue (default 1024).
	// Admission control rejects — 429 with Retry-After, never blocks —
	// the moment the queue is full, so a slow scoring path surfaces as
	// fast feedback instead of unbounded goroutine pile-up.
	QueueDepth int
	// MaxQueueDelay, when positive, sheds jobs that waited in the queue
	// longer than this before scoring (429 + Retry-After). A request
	// that would blow its latency budget anyway is cheaper to refuse
	// than to score.
	MaxQueueDelay time.Duration

	// LearnCap, when positive, enables POST /learn with this many
	// buffered rows per model. Learn traffic lands in a bounded
	// in-memory buffer drained by a live refit — backpressure is a 429,
	// and the predict path never touches the buffer.
	LearnCap int
	// OnLearn, when set, is invoked once per model name on the first
	// accepted /learn rows, with the registry the model publishes into
	// and the buffer feeding it. Typical use: start RefitStream.
	OnLearn func(model string, reg *Registry, buf *LearnBuffer)

	// Metrics is the registry the serving instruments (request and shed
	// counters, batch size/latency histograms, queue depth) register in;
	// /metrics encodes it as Prometheus text and /stats reads the same
	// counters as JSON. Set it to share one registry with other
	// components of the process; nil gives the server a registry of its
	// own (a cluster server: its cluster's).
	Metrics *metrics.Registry
}

func (o Options) withDefaults() Options {
	if o.MaxBatch <= 0 {
		o.MaxBatch = 256
	}
	if o.BatchWindow <= 0 {
		o.BatchWindow = 500 * time.Microsecond
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 32 << 20
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 1024
	}
	if o.Metrics == nil {
		o.Metrics = metrics.NewRegistry()
	}
	return o
}

// retryAfterSeconds is the Retry-After hint on every 429: long enough
// for a batch window and queue to drain, short enough that a loaded
// client keeps probing.
const retryAfterSeconds = "1"

// serveMetrics are the server's instruments in its metrics.Registry —
// the one ledger of serving events: /metrics encodes the registry,
// /stats reads the same counters.
type serveMetrics struct {
	requests      *metrics.Counter
	errors        *metrics.Counter
	rows          *metrics.Counter
	batches       *metrics.Counter
	shed          *metrics.Counter
	learnRows     *metrics.Counter
	learnRejected *metrics.Counter
	batchRows     *metrics.Histogram
	batchLatency  *metrics.Histogram
}

func newServeMetrics(mr *metrics.Registry) serveMetrics {
	return serveMetrics{
		requests:      mr.Counter("saco_requests_total", "predict requests received"),
		errors:        mr.Counter("saco_request_errors_total", "predict requests answered with an error"),
		rows:          mr.Counter("saco_rows_scored_total", "request rows scored"),
		batches:       mr.Counter("saco_batches_total", "batched kernel calls"),
		shed:          mr.Counter("saco_shed_total", "requests shed by admission control"),
		learnRows:     mr.Counter("saco_learn_rows_total", "learn rows accepted into refit buffers"),
		learnRejected: mr.Counter("saco_learn_rejected_total", "learn rows refused by buffer backpressure"),
		batchRows:     mr.Histogram("saco_batch_rows", "rows per batched kernel call", metrics.DefSizeBuckets),
		batchLatency:  mr.Histogram("saco_batch_latency_seconds", "batched kernel call latency", metrics.DefLatencyBuckets),
	}
}

// Server answers prediction traffic against a Registry (single-model
// mode) or a Cluster's owned slice of a model fleet. Construct with
// NewServer or NewClusterServer, listen with ops.NewServer(Handler()),
// Close when done.
type Server struct {
	reg     *Registry // single-model mode; nil in cluster mode
	cluster *Cluster  // cluster mode; nil in single-model mode
	opt     Options
	met     serveMetrics
	jobs    chan *predictJob
	free    chan *predictJob // idle request state, see readJob
	stop    chan struct{}
	done    chan struct{}
	learn   *learnSet
	start   time.Time
}

// NewServer starts the dispatcher goroutine and returns a single-model
// server.
func NewServer(reg *Registry, opt Options) *Server {
	return newServer(reg, nil, opt)
}

// NewClusterServer starts a server fronting the cluster's owned
// models: /predict and /learn resolve the model name against the shard
// ring and forward to the owning replica when it is not this one.
func NewClusterServer(c *Cluster, opt Options) *Server {
	return newServer(nil, c, opt)
}

func newServer(reg *Registry, c *Cluster, opt Options) *Server {
	if opt.Metrics == nil && c != nil {
		opt.Metrics = c.opt.Metrics
	}
	opt = opt.withDefaults()
	s := &Server{
		reg:     reg,
		cluster: c,
		opt:     opt,
		met:     newServeMetrics(opt.Metrics),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
		start:   time.Now(),
	}
	s.jobs = make(chan *predictJob, s.opt.QueueDepth)
	s.free = make(chan *predictJob, jobFreeSlots)
	if s.opt.LearnCap > 0 {
		s.learn = newLearnSet(s.opt.LearnCap)
	}
	opt.Metrics.GaugeFunc("saco_queue_depth", "predict jobs queued for the dispatcher",
		func() float64 { return float64(len(s.jobs)) })
	go s.dispatch()
	return s
}

// Close stops the dispatcher. In-flight handlers receive 503s; callers
// should shut the http.Server down first.
func (s *Server) Close() {
	close(s.stop)
	<-s.done
}

// Handler returns the route table: the serving routes mounted next to
// the shared ops routes (/healthz and /readyz both answer from
// servable, /metrics encodes the server's registry).
func (s *Server) Handler() http.Handler {
	mux := ops.NewMux(s.opt.Metrics, s.servable, s.servable)
	mux.HandleFunc("/predict", s.handlePredict)
	mux.HandleFunc("/stats", s.handleStats)
	if s.learn != nil {
		mux.HandleFunc("/learn", s.handleLearn)
	}
	if s.cluster != nil {
		mux.HandleFunc("/cluster", s.handleClusterStatus)
		mux.HandleFunc("/cluster/members", s.handleClusterMembers)
	}
	return mux
}

// resolve routes a model-name-addressed request: in cluster mode the
// name is required and resolved against the shard ring (forwarding to
// the owner when it is not this replica); in single-model mode local
// always runs against the one registry. local receives the registry
// that owns the name on this replica, or nil when the name is owned
// here but unknown.
func (s *Server) resolve(w http.ResponseWriter, r *http.Request, body []byte, create bool, local func(name string, reg *Registry)) {
	if s.cluster == nil {
		local("", s.reg)
		return
	}
	name := r.URL.Query().Get("model")
	if name == "" {
		s.fail(w, http.StatusBadRequest, "cluster mode requires ?model=<name>")
		return
	}
	s.cluster.router.Dispatch(w, r, name, body, func() {
		if create {
			reg, err := s.cluster.Ensure(name)
			if err != nil {
				s.fail(w, http.StatusInternalServerError, err.Error())
				return
			}
			local(name, reg)
			return
		}
		local(name, s.cluster.Registry(name))
	})
}

// handlePredict reads the body into pooled request state, parses it
// (JSON or LIBSVM lines by Content-Type), enqueues the rows on the
// micro-batcher, and waits for its verdict. In cluster mode the request
// is first routed to the replica owning ?model=.
func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	s.met.requests.Inc()
	if r.Method != http.MethodPost {
		s.fail(w, http.StatusMethodNotAllowed, "POST a JSON or LIBSVM body to /predict")
		return
	}
	job := s.readJob(w, r)
	if job == nil {
		return
	}
	// A job goes back to the free list only from here, once nothing else
	// can hold it: a forwarded request leaves its body with the HTTP
	// client, so that job is dropped.
	s.resolve(w, r, job.body, false, func(name string, reg *Registry) {
		if reg == nil {
			s.fail(w, http.StatusNotFound, fmt.Sprintf("model %q has no registry on this replica", name))
		} else if !s.predictLocal(w, r, reg, job) {
			return
		}
		s.putJob(job)
	})
}

// predictLocal runs the parse → enqueue → wait → encode cycle against
// one registry. The enqueue is non-blocking: a full queue is an immediate
// 429 with Retry-After (admission control), never a blocked handler. It
// reports whether the job is the handler's alone again: not after a
// shutdown reply, when the dispatcher may still be scoring into it.
func (s *Server) predictLocal(w http.ResponseWriter, r *http.Request, reg *Registry, job *predictJob) bool {
	if err := job.parse(r, job.body, false); err != nil {
		s.fail(w, http.StatusBadRequest, err.Error())
		return true
	}
	if job.rows() == 0 {
		s.fail(w, http.StatusBadRequest, "no rows in request")
		return true
	}
	job.reg, job.enq = reg, time.Now()
	job.scores = slices.Grow(job.scores[:0], job.rows())[:job.rows()]

	select {
	case s.jobs <- job:
	default:
		s.shedReply(w, "dispatcher queue full")
		return true
	}
	select {
	case res := <-job.resp:
		s.reply(w, job, res)
		return true
	case <-s.stop:
		s.fail(w, http.StatusServiceUnavailable, "server shutting down")
		return false
	}
}

// shedReply is the admission-control refusal: 429, Retry-After, and a
// tick on the shed counter.
func (s *Server) shedReply(w http.ResponseWriter, why string) {
	s.met.shed.Inc()
	w.Header().Set("Retry-After", retryAfterSeconds)
	s.fail(w, http.StatusTooManyRequests, "overloaded: "+why)
}

// fail writes a plain-text error and counts it.
func (s *Server) fail(w http.ResponseWriter, status int, msg string) {
	s.met.errors.Inc()
	http.Error(w, msg, status)
}

// servable is the liveness and readiness probe: nil once every model
// this replica owns is servable (in single-model mode: the one model).
func (s *Server) servable() error {
	if s.cluster != nil {
		if missing := s.cluster.missingModels(); len(missing) > 0 {
			return errors.New("no model loaded for: " + strings.Join(missing, ", "))
		}
		return nil
	}
	if s.reg.Current() == nil {
		return errors.New("no model loaded")
	}
	return nil
}

// statsResponse is the /stats reply.
type statsResponse struct {
	ModelVersion  uint64  `json:"model_version"`
	ModelKind     string  `json:"model_kind"`
	Features      int     `json:"features"`
	ModelNNZ      int     `json:"model_nnz"`
	Lambda        float64 `json:"lambda"`
	Requests      uint64  `json:"requests"`
	RowsScored    uint64  `json:"rows_scored"`
	Batches       uint64  `json:"batches"`
	Errors        uint64  `json:"errors"`
	Shed          uint64  `json:"shed"`
	Publishes     uint64  `json:"registry_publishes"`
	Swaps         uint64  `json:"registry_swaps"`
	OwnedModels   int     `json:"owned_models,omitempty"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Kernels names the internal/simd dispatch set scoring every batch,
	// so a recorded benchmark or incident capture identifies the kernels
	// that served it.
	Kernels string `json:"kernels"`
}

// handleStats reports the serving counters — the values /metrics
// encodes, read from the same instruments — and the current model's
// provenance.
func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	resp := statsResponse{
		Requests:      s.met.requests.Value(),
		RowsScored:    s.met.rows.Value(),
		Batches:       s.met.batches.Value(),
		Errors:        s.met.errors.Value(),
		Shed:          s.met.shed.Value(),
		UptimeSeconds: time.Since(s.start).Seconds(),
		Kernels:       simd.Active().Name(),
	}
	if s.cluster != nil {
		resp.OwnedModels = len(s.cluster.Owned())
	} else {
		resp.Publishes = s.reg.Publishes()
		resp.Swaps = s.reg.Swaps()
		if m := s.reg.Current(); m != nil {
			resp.ModelVersion = m.Version
			resp.ModelKind = m.Kind.String()
			resp.Features = m.Features
			resp.ModelNNZ = m.NNZ()
			resp.Lambda = m.Lambda
		}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp) //nolint:errcheck
}

// handleClusterStatus reports the ring and this replica's owned slice.
func (s *Server) handleClusterStatus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.fail(w, http.StatusMethodNotAllowed, "GET /cluster")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.cluster.Status()) //nolint:errcheck
}

// clusterMembersRequest is the POST /cluster/members body.
type clusterMembersRequest struct {
	Members []string `json:"members"`
}

// handleClusterMembers installs a new member set and rebalances the
// owned model slice against the new ring.
func (s *Server) handleClusterMembers(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.fail(w, http.StatusMethodNotAllowed, "POST a JSON member list to /cluster/members")
		return
	}
	job := s.readJob(w, r)
	if job == nil {
		return
	}
	defer s.putJob(job)
	var req clusterMembersRequest
	if err := json.Unmarshal(job.body, &req); err != nil {
		s.fail(w, http.StatusBadRequest, "bad JSON body: "+err.Error())
		return
	}
	if len(req.Members) == 0 {
		s.fail(w, http.StatusBadRequest, "members must be non-empty")
		return
	}
	if err := s.cluster.SetMembers(req.Members); err != nil {
		s.fail(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.cluster.Status()) //nolint:errcheck
}
