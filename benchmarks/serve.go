package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"saco/internal/core"
	"saco/internal/datagen"
	"saco/internal/libsvm"
	"saco/internal/metrics"
	"saco/internal/rng"
	"saco/internal/serve"
	"saco/internal/sparse"
)

// serveSpec is the traffic shape of one serve workload.
type serveSpec struct {
	rows   int // rows per request
	pool   int // distinct request bodies, cycled
	warm   int // warm-up requests per set-up
	stages int // repetitions of each standalone stage in the traced run
}

// request is one generated /predict body with everything needed to check
// and re-measure it offline.
type request struct {
	body  []byte
	batch *sparse.CSR // the same rows, pre-parsed
	want  []float64   // Model.Score of batch, computed offline
}

// serveCase is one set-up serve workload: a live server behind httptest
// and the request pool that is sent to it.
type serveCase struct {
	spec     serveSpec
	dir      string
	srv      *serve.Server
	ts       *httptest.Server
	client   *http.Client
	model    *serve.Model
	requests []request
	problems []string
}

// nnzPerRow is the number of features set in every request row.
const nnzPerRow = 48

// maxBatch and batchWindow are saserve's defaults, given to the server
// explicitly so that the benchmark knows the timer inside a request's
// latency: a request of fewer rows than maxBatch waits out the window for
// companions, a full one is scored at once.
const (
	maxBatch    = 256
	batchWindow = 500 * time.Microsecond
)

// timerMs is the part of every request's latency that is the dispatcher's
// timer and not work. With two closed-loop clients both requests of a
// batch arrive within microseconds of each other and wait the whole
// window.
func (c *serveCase) timerMs() float64 {
	if c.spec.rows < maxBatch {
		return ms(batchWindow)
	}
	return 0
}

// newServeCase trains a Lasso model from the seed, publishes it into a
// fresh registry, starts a server with saserve's default options and
// sends the warm-up requests.
func newServeCase(seed uint64, sz *sizes, spec serveSpec) (c *serveCase, err error) {
	d := datagen.Regression("bench-serve", seed, sz.serveRows, sz.serveFeatures, sz.serveDensity, sz.serveFeatures/20, 0.1)
	csc := d.CSR.ToCSC()
	lambda := 0.1 * core.LambdaMaxL1(csc, d.B)
	fit, err := core.Lasso(csc, d.B, core.LassoOptions{
		Lambda: lambda, BlockSize: 8, S: 16, Iters: sz.serveTrainIters, Accelerated: true, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	model := serve.NewModel(serve.KindLasso, fit.X)
	model.Lambda, model.TrainRows = lambda, sz.serveRows
	if model.NNZ() == 0 {
		return nil, fmt.Errorf("trained model has no nonzero coefficient")
	}

	// The registry lives in a temporary directory of its own and is
	// removed on close, so runs never see each other's model files.
	dir, err := os.MkdirTemp("", "sabenchmarks-registry-")
	if err != nil {
		return nil, err
	}
	c = &serveCase{spec: spec, dir: dir, model: model}
	defer func() {
		if err != nil {
			c.close()
		}
	}()
	reg, err := serve.OpenRegistry(dir)
	if err != nil {
		return nil, err
	}
	if _, err = reg.Publish(model); err != nil {
		return nil, err
	}
	c.srv = serve.NewServer(reg, serve.Options{MaxBatch: maxBatch, BatchWindow: batchWindow, Metrics: metrics.NewRegistry()})
	c.ts = httptest.NewServer(c.srv.Handler())
	c.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: loadClients()}}

	r := rng.New(seed ^ 0x7265717565737473) // "requests"
	c.requests = make([]request, spec.pool)
	for i := range c.requests {
		if c.requests[i], err = newRequest(r, model, spec.rows); err != nil {
			return nil, err
		}
	}
	warm, err := c.load(0, spec.warm, 0, nil)
	if err != nil {
		return nil, err
	}
	if warm.failed > 0 {
		c.problems = append(c.problems, fmt.Sprintf("%d of %d warm-up requests failed", warm.failed, len(warm.latMs)))
	}
	return c, nil
}

func (c *serveCase) close() {
	if c.client != nil {
		c.client.CloseIdleConnections()
	}
	if c.ts != nil {
		c.ts.Close()
	}
	if c.srv != nil {
		c.srv.Close()
	}
	os.RemoveAll(c.dir)
}

// newRequest draws rows×nnzPerRow features and formats them as LIBSVM
// lines. Values are printed with the shortest representation that parses
// back to the same float64, so the offline scores are the exact answer.
func newRequest(r *rng.Stream, model *serve.Model, rows int) (request, error) {
	var body bytes.Buffer
	rowPtr := make([]int, 1, rows+1)
	var colIdx []int
	var vals []float64
	for i := 0; i < rows; i++ {
		cols := r.SampleK(model.Features, nnzPerRow)
		sort.Ints(cols)
		for k, j := range cols {
			v := r.NormFloat64()
			if k > 0 {
				body.WriteByte(' ')
			}
			body.WriteString(strconv.Itoa(j + 1))
			body.WriteByte(':')
			body.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
			colIdx = append(colIdx, j)
			vals = append(vals, v)
		}
		body.WriteByte('\n')
		rowPtr = append(rowPtr, len(vals))
	}
	batch, err := sparse.NewCSR(rows, model.Features, rowPtr, colIdx, vals)
	if err != nil {
		return request{}, err
	}
	want := make([]float64, rows)
	if err := model.Score(batch, 1, want); err != nil {
		return request{}, err
	}
	return request{body: body.Bytes(), batch: batch, want: want}, nil
}

// ok reports whether a response is 200 with scores bitwise-equal to the
// offline ones.
func (q *request) ok(status int, body []byte) bool {
	if status != http.StatusOK {
		return false
	}
	var reply struct {
		Scores []float64 `json:"scores"`
	}
	if json.Unmarshal(body, &reply) != nil || len(reply.Scores) != len(q.want) {
		return false
	}
	for i, v := range reply.Scores {
		if math.Float64bits(v) != math.Float64bits(q.want[i]) {
			return false
		}
	}
	return true
}

// loadRun is what one load phase produced.
type loadRun struct {
	latMs  []float64
	failed int
	wall   time.Duration
	cpu    time.Duration
	allocs uint64
	spans  []*recorder // one per client and window, traced phases only

	// Per-window costs, filled by loadWindows: the median latency and the
	// CPU per request at the reference speed, the allocations per request,
	// and how slow the machine was around the window.
	p50Ms, cpuMsPerReq, allocsPerReq, slow []float64
}

// loadClients is the closed-loop client count: one per core, at most 2,
// so the load generator never outnumbers the cores it shares with the
// server.
func loadClients() int { return min(maxProcs(), 2) }

// windows is how many consecutive windows the timed phase of a serve
// workload is cut into. The machine's speed is read between windows, and
// latency, CPU and allocations per request are reported as the median
// window, so a burst of interference from outside the process costs one
// window and not the run.
const windows = 16

// loadWindows runs the timed phase: `windows` closed-loop windows back to
// back, together at least `seconds` long and minRequests requests.
func (c *serveCase) loadWindows(seconds float64, minRequests int, epoch *time.Time, speed *speedRef) (*loadRun, error) {
	total := &loadRun{}
	// A request is handled by whichever core is free — client, handler,
	// dispatcher and scorer are goroutines of one process — so its latency
	// follows the mean speed of the cores, the reading's CPU slowdown, and
	// not the slower core. The batch window inside the latency is a timer:
	// it does not stretch with the machine and is not divided.
	timer := c.timerMs()
	width := loadClients()
	before := speed.read(width)
	for w := 0; w < windows; w++ {
		run, err := c.load(seconds/windows, (minRequests+windows-1)/windows, len(total.latMs), epoch)
		if err != nil {
			return nil, err
		}
		after := speed.read(width)
		slow := between(before, after).cpu
		before = after
		n := float64(len(run.latMs))
		total.slow = append(total.slow, slow)
		total.p50Ms = append(total.p50Ms, timer+(median(run.latMs)-timer)/slow)
		total.cpuMsPerReq = append(total.cpuMsPerReq, ms(run.cpu)/n/slow)
		total.allocsPerReq = append(total.allocsPerReq, float64(run.allocs)/n)
		total.latMs = append(total.latMs, run.latMs...)
		total.failed += run.failed
		total.wall += run.wall
		total.spans = append(total.spans, run.spans...)
	}
	return total, nil
}

// load drives the server in a closed loop: each client sends its next
// request only after the previous reply is checked. Clients stop once
// `seconds` have passed and `minRequests` have been sent in total. The
// requests are numbered from `first` on, which also picks up the cycle
// through the request pool where the previous window left it.
func (c *serveCase) load(seconds float64, minRequests, first int, epoch *time.Time) (*loadRun, error) {
	clients := loadClients()
	perClient := (minRequests + clients - 1) / clients
	type clientRun struct {
		latMs  []float64
		failed int
		rec    *recorder
		err    error
	}
	runs := make([]clientRun, clients)
	for g := range runs {
		runs[g].latMs = make([]float64, 0, max(perClient, 1<<14))
		if epoch != nil {
			runs[g].rec = &recorder{epoch: *epoch, rank: g}
		}
	}
	url := c.ts.URL + "/predict"

	a0, _ := mallocs()
	c0 := cpuTime()
	t0 := time.Now()
	deadline := t0.Add(time.Duration(seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for g := range runs {
		wg.Add(1)
		go func(g int, run *clientRun) {
			defer wg.Done()
			for i := 0; i < perClient || time.Now().Before(deadline); i++ {
				op := first + g + i*clients
				q := &c.requests[op%len(c.requests)]
				var id int32
				if run.rec != nil {
					run.rec.op = op
					id = run.rec.begin("serve.request", -1)
				}
				start := time.Now()
				resp, err := c.client.Post(url, "text/plain", bytes.NewReader(q.body))
				if err != nil {
					run.err = err
					return
				}
				reply, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				lat := time.Since(start)
				if run.rec != nil {
					run.rec.end(id, int64(q.batch.M))
				}
				run.latMs = append(run.latMs, ms(lat))
				if err != nil || !q.ok(resp.StatusCode, reply) {
					run.failed++
				}
			}
		}(g, &runs[g])
	}
	wg.Wait()
	out := &loadRun{wall: time.Since(t0), cpu: cpuTime() - c0}
	a1, _ := mallocs()
	out.allocs = a1 - a0
	for g := range runs {
		if runs[g].err != nil {
			return nil, runs[g].err
		}
		out.latMs = append(out.latMs, runs[g].latMs...)
		out.failed += runs[g].failed
		if runs[g].rec != nil {
			out.spans = append(out.spans, runs[g].rec)
		}
	}
	return out, nil
}

// serverCounters reads the server's own counters through /stats.
type serverCounters struct {
	RowsScored uint64 `json:"rows_scored"`
	Batches    uint64 `json:"batches"`
	Shed       uint64 `json:"shed"`
}

func (c *serveCase) counters() (serverCounters, error) {
	var sc serverCounters
	resp, err := c.client.Get(c.ts.URL + "/stats")
	if err != nil {
		return sc, err
	}
	defer resp.Body.Close()
	return sc, json.NewDecoder(resp.Body).Decode(&sc)
}

// standalone measures the request path stage by stage on the same
// request pool: parsing, scoring, and the whole handler without TCP.
func (c *serveCase) standalone(rec *recorder, out map[string]float64) error {
	n := c.spec.stages
	pick := func(i int) *request { return &c.requests[i%len(c.requests)] }

	id := rec.begin("libsvm.RowParser", -1)
	for i := 0; i < n; i++ {
		if err := parseRows(pick(i).body); err != nil {
			return err
		}
	}
	rec.end(id, int64(n))
	out["libsvm.parse_us_per_req"] = rec.spans[id].ms() * 1e3 / float64(n)

	y := make([]float64, c.spec.rows)
	id = rec.begin("serve.Model.Score", -1)
	for i := 0; i < n; i++ {
		if err := c.model.Score(pick(i).batch, 0, y); err != nil {
			return err
		}
	}
	rec.end(id, int64(n))
	out["serve.score_us_per_req"] = rec.spans[id].ms() * 1e3 / float64(n)

	h := c.srv.Handler()
	a0, b0 := mallocs()
	id = rec.begin("serve.Handler", -1)
	for i := 0; i < n; i++ {
		q := pick(i)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/predict", bytes.NewReader(q.body)))
		if !q.ok(w.Code, w.Body.Bytes()) {
			return fmt.Errorf("handler reply %d does not match the offline scores", w.Code)
		}
	}
	rec.end(id, int64(n))
	a1, b1 := mallocs()
	out["serve.handler_us_per_req"] = rec.spans[id].ms() * 1e3 / float64(n)
	out["serve.handler_allocs_per_req"] = float64(a1-a0) / float64(n)
	out["serve.handler_bytes_per_req"] = float64(b1-b0) / float64(n)
	return nil
}

// parseRows runs the shared LIBSVM row grammar over a request body the
// way the /predict handler does: line by line, a label synthesized in
// front of the bare index:value pairs.
func parseRows(body []byte) error {
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 1<<16), 1<<26)
	var p libsvm.RowParser
	for line := 1; sc.Scan(); line++ {
		if libsvm.Skip(sc.Text()) {
			continue
		}
		if _, err := p.Parse("0 "+sc.Text(), line); err != nil {
			return err
		}
	}
	return sc.Err()
}

// report runs the timed phase of a serve workload and derives its
// metrics.
func (c *serveCase) report(cfg runConfig) (*outcome, *recorder, error) {
	seconds := cfg.seconds
	if cfg.trace {
		seconds /= 2 // an untraced and a traced phase share the run
	}
	before, err := c.counters()
	if err != nil {
		return nil, nil, err
	}
	plain, err := c.loadWindows(seconds, cfg.size.minRequests, nil, cfg.speed)
	if err != nil {
		return nil, nil, err
	}
	after, err := c.counters()
	if err != nil {
		return nil, nil, err
	}
	out := &outcome{
		attempted: len(plain.latMs), failed: plain.failed, problems: c.problems,
		samples: len(plain.latMs), metrics: map[string]float64{},
	}
	n := float64(len(plain.latMs))
	p50 := median(plain.latMs)
	out.rawP50Ms = p50
	out.slowdown = median(plain.slow)
	if !cfg.trace {
		out.metrics["op_p50_ms"] = median(plain.p50Ms)
		out.metrics["op_cpu_ms"] = median(plain.cpuMsPerReq)
		out.metrics["allocs_per_op"] = median(plain.allocsPerReq)
		return out, nil, nil
	}

	m := out.metrics
	m["serve.req_per_s"] = n / plain.wall.Seconds()
	m["serve.req_p90_ms"] = quantile(plain.latMs, 0.90)
	m["serve.req_p99_ms"] = quantile(plain.latMs, 0.99)
	m["harness.slowdown"] = out.slowdown
	m["serve.shed"] = float64(after.Shed - before.Shed)
	if b := after.Batches - before.Batches; b > 0 {
		m["serve.batch_rows_mean"] = float64(after.RowsScored-before.RowsScored) / float64(b)
	}

	epoch := time.Now()
	traced, err := c.loadWindows(seconds, cfg.size.minRequests, &epoch, cfg.speed)
	if err != nil {
		return nil, nil, err
	}
	out.attempted += len(traced.latMs)
	out.failed += traced.failed
	rec := &recorder{epoch: epoch}
	for _, client := range traced.spans {
		rec.merge(client, -1)
	}
	m["trace.spans_per_op"] = 1
	m["trace_overhead_pct"] = 100 * (median(traced.latMs)/p50 - 1)
	rec.op = -1 // the standalone stages belong to no request
	if err := c.standalone(rec, m); err != nil {
		return nil, nil, err
	}
	m["serve.http_overhead_us"] = p50*1e3 - m["serve.handler_us_per_req"]
	return out, rec, nil
}
