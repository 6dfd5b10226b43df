package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"saco/internal/core"
	"saco/internal/datagen"
	"saco/internal/dist"
	"saco/internal/mat"
	"saco/internal/mpi"
	"saco/internal/rng"
	"saco/internal/simd"
	"saco/internal/sparse"
)

// saTolerance bounds the relative distance between an s-step solve and
// the s=1 solve of the same seed (the paper's Table III stability claim).
const saTolerance = 1e-9

// solution is what one solve op returns and what every timed op is
// compared against, bit for bit.
type solution struct {
	x     []float64
	obj   float64
	stats *mpi.Stats // dist workloads only
}

func (s *solution) equal(o *solution) bool {
	if len(s.x) != len(o.x) || math.Float64bits(s.obj) != math.Float64bits(o.obj) {
		return false
	}
	for i, v := range s.x {
		if math.Float64bits(v) != math.Float64bits(o.x[i]) {
			return false
		}
	}
	if (s.stats == nil) != (o.stats == nil) {
		return false
	}
	return s.stats == nil ||
		(s.stats.TotalMsgs() == o.stats.TotalMsgs() && s.stats.TotalWords() == o.stats.TotalWords())
}

// relDistance is max(‖a.x−b.x‖/‖b.x‖, |a.obj−b.obj|/|b.obj|).
func relDistance(a, b *solution) float64 {
	d := append([]float64(nil), a.x...)
	mat.Axpy(-1, b.x, d)
	rx := mat.Nrm2(d) / mat.Nrm2(b.x)
	ro := math.Abs(a.obj-b.obj) / math.Abs(b.obj)
	return math.Max(rx, ro)
}

// solveCase is one set-up solve workload: the op, the result every timed
// op must reproduce, and the standalone layer measurements that go with
// it.
type solveCase struct {
	iters int // H of one op
	// width is how many cores an op keeps busy, and so the width of the
	// speed readings around it: 1 for the sequential solvers, one per rank
	// for the dist workloads.
	width int
	// run executes one op. With rec non-nil the layers the op calls are
	// decorated and their spans recorded under root.
	run  func(rec *recorder, root int32) (*solution, error)
	want *solution
	// relerr is the distance to the s=1 solve of the same seed (0 for
	// workloads that are themselves s=1).
	relerr float64
	// standalone measures the stages that have no seam, adding spans to
	// rec and values to out.
	standalone func(rec *recorder, out map[string]float64) error
	// problems lists set-up checks that failed; any entry makes the run
	// incorrect.
	problems []string
}

func (c *solveCase) close() {}

// warm runs the warm-up ops of a set-up, installs the first result as
// the reference for the timed ops and checks it against ref when given.
func (c *solveCase) warm(n int, ref *solution) error {
	for i := 0; i < n; i++ {
		sol, err := c.run(nil, -1)
		if err != nil {
			return err
		}
		if c.want == nil {
			c.want = sol
		} else if !sol.equal(c.want) {
			c.problems = append(c.problems, "warm-up ops disagree bitwise")
		}
	}
	if ref != nil {
		c.relerr = relDistance(c.want, ref)
		if !(c.relerr <= saTolerance) {
			c.problems = append(c.problems, fmt.Sprintf("s-step solve is %.3g from the s=1 solve, want <= %g", c.relerr, saTolerance))
		}
	}
	return nil
}

// regression builds the shared Lasso problem: the design in both
// storage forms, the targets and λ = 0.1·λmax.
type regression struct {
	csr    *sparse.CSR
	csc    *sparse.CSC
	b      []float64
	lambda float64
}

func newRegression(seed uint64, sz *sizes) *regression {
	d := datagen.Regression("bench", seed, sz.m, sz.n, sz.density, sz.n/20, 0.1)
	csc := d.CSR.ToCSC()
	return &regression{csr: d.CSR, csc: csc, b: d.B, lambda: 0.1 * core.LambdaMaxL1(csc, d.B)}
}

func (p *regression) solve(opt core.LassoOptions, rec *recorder, root int32) (*solution, error) {
	var a core.ColMatrix = p.csc
	var id int32
	if rec != nil {
		id = rec.begin("core.Lasso", root)
		a = &tracedCols{a: p.csc, rec: rec, parent: id}
	}
	res, err := core.Lasso(a, p.b, opt)
	if err != nil {
		return nil, err
	}
	if rec != nil {
		rec.end(id, int64(opt.Iters))
	}
	return &solution{x: res.X, obj: res.Objective}, nil
}

// standalone measures the kernels under the column solvers on this
// problem's own columns.
func (p *regression) standalone(rec *recorder, out map[string]float64, seed uint64) {
	a := p.csc
	mergeDotStandalone(rec, out, seed, a.N, func(j int) ([]int, []float64) {
		return a.RowIdx[a.ColPtr[j]:a.ColPtr[j+1]], a.Val[a.ColPtr[j]:a.ColPtr[j+1]]
	})
	eig8Standalone(rec, out, seed, a)
}

// newLassoSA sets up lasso-sa: accelerated BCD, µ=8, s=16.
func newLassoSA(seed uint64, sz *sizes) (*solveCase, error) {
	p := newRegression(seed, sz)
	opt := core.LassoOptions{Lambda: p.lambda, BlockSize: 8, S: 16, Iters: sz.lassoSA.iters, Accelerated: true, Seed: seed}
	classic := opt
	classic.S = 1
	ref, err := p.solve(classic, nil, -1)
	if err != nil {
		return nil, err
	}
	c := &solveCase{
		iters: opt.Iters, width: 1,
		run: func(rec *recorder, root int32) (*solution, error) {
			return p.solve(opt, rec, root)
		},
		standalone: func(rec *recorder, out map[string]float64) error {
			p.standalone(rec, out, seed)
			return nil
		},
	}
	return c, c.warm(sz.lassoSA.warm, ref)
}

// newLassoClassic sets up lasso-classic: plain BCD, µ=8, s=1.
func newLassoClassic(seed uint64, sz *sizes) (*solveCase, error) {
	p := newRegression(seed, sz)
	opt := core.LassoOptions{Lambda: p.lambda, BlockSize: 8, S: 1, Iters: sz.lassoClassic.iters, Seed: seed}
	c := &solveCase{
		iters: opt.Iters, width: 1,
		run: func(rec *recorder, root int32) (*solution, error) {
			return p.solve(opt, rec, root)
		},
		standalone: func(rec *recorder, out map[string]float64) error {
			p.standalone(rec, out, seed)
			return nil
		},
	}
	return c, c.warm(sz.lassoClassic.warm, nil)
}

// newSVMSA sets up svm-sa: dual CD on rows, SVM-L1, λ=1, s=64.
func newSVMSA(seed uint64, sz *sizes) (*solveCase, error) {
	d := datagen.Classification("bench", seed, sz.m, sz.n, sz.density, 0.1)
	a := d.CSR
	opt := core.SVMOptions{Lambda: 1, Loss: core.SVML1, S: 64, Iters: sz.svmSA.iters, Seed: seed}
	solve := func(opt core.SVMOptions, rec *recorder, root int32) (*solution, error) {
		var rows core.RowMatrix = a
		var id int32
		if rec != nil {
			id = rec.begin("core.SVM", root)
			rows = &tracedRows{a: a, rec: rec, parent: id}
		}
		res, err := core.SVM(rows, d.B, opt)
		if err != nil {
			return nil, err
		}
		if rec != nil {
			rec.end(id, int64(opt.Iters))
		}
		return &solution{x: res.X, obj: res.Primal}, nil
	}
	classic := opt
	classic.S = 1
	ref, err := solve(classic, nil, -1)
	if err != nil {
		return nil, err
	}
	c := &solveCase{
		iters: opt.Iters, width: 1,
		run: func(rec *recorder, root int32) (*solution, error) {
			return solve(opt, rec, root)
		},
		standalone: func(rec *recorder, out map[string]float64) error {
			mergeDotStandalone(rec, out, seed, a.M, func(i int) ([]int, []float64) {
				return a.ColIdx[a.RowPtr[i]:a.RowPtr[i+1]], a.Val[a.RowPtr[i]:a.RowPtr[i+1]]
			})
			return nil
		},
	}
	return c, c.warm(sz.svmSA.warm, ref)
}

// distRanks is the world size of the dist workloads: one rank per core
// of the 2-core box the benchmark is sized for.
const distRanks = 2

// newDistLasso sets up dist-lasso-s1 (s=1) and dist-lasso-sa (s=16):
// dist.Lasso over a loopback TCP mesh, world boot included in the op.
func newDistLasso(seed uint64, sz *sizes, spec solveSpec, s int) (*solveCase, error) {
	p := newRegression(seed, sz)
	const mu = 8
	opt := core.LassoOptions{Lambda: p.lambda, BlockSize: mu, S: s, Iters: spec.iters, Accelerated: true, Seed: seed}
	solve := func(tr dist.Transport, rec *recorder, root int32) (*solution, error) {
		cl := dist.Options{P: distRanks, Transport: tr}
		var id int32
		var ranks []*recorder
		if rec != nil {
			ranks = make([]*recorder, cl.P)
			for r := range ranks {
				ranks[r] = &recorder{epoch: rec.epoch, rank: r, op: rec.op}
			}
			cl.WrapTransport = func(rank int, t mpi.Transport) mpi.Transport {
				return &tracedTransport{Transport: t, rec: ranks[rank]}
			}
			id = rec.begin("dist.Lasso", root)
		}
		res, err := dist.Lasso(p.csr, p.b, opt, cl)
		if err != nil {
			return nil, err
		}
		if rec != nil {
			rec.end(id, int64(opt.Iters))
			for _, rr := range ranks {
				rec.merge(rr, id)
			}
		}
		return &solution{x: res.X, obj: res.Objective, stats: res.Stats}, nil
	}
	// The simulated world is the reference for every deterministic
	// trajectory: the TCP run must reproduce it bit for bit.
	ref, err := solve(dist.TransportSim, nil, -1)
	if err != nil {
		return nil, err
	}
	k := s * mu
	words := gramEntries(k) + 2*int64(k) // packed Gram triangle + the two hoisted products
	c := &solveCase{
		iters: opt.Iters, width: min(distRanks, maxProcs()),
		run: func(rec *recorder, root int32) (*solution, error) {
			return solve(dist.TransportTCP, rec, root)
		},
		standalone: func(rec *recorder, out map[string]float64) error {
			p.standalone(rec, out, seed)
			return mpiStandalone(rec, out)
		},
	}
	if err := c.warm(spec.warm, nil); err != nil {
		return nil, err
	}
	if !c.want.equal(ref) {
		c.problems = append(c.problems, "TCP run is not bitwise-equal to the simulated run")
	}
	// One Allreduce per outer iteration; at P=2 the binomial tree is one
	// message up and one down.
	outer := int64((opt.Iters + s - 1) / s)
	if got, want := c.want.stats.TotalMsgs(), 2*outer; got != want {
		c.problems = append(c.problems, fmt.Sprintf("TotalMsgs=%d, closed form 2·⌈H/s⌉=%d", got, want))
	}
	if got, want := c.want.stats.TotalWords(), 2*outer*words; got != want {
		c.problems = append(c.problems, fmt.Sprintf("TotalWords=%d, closed form %d", got, want))
	}
	return c, nil
}

// passes is how many times a standalone stage is repeated; its metric is
// the median pass.
const passes = 9

// mergeDotStandalone times simd.MergeDot of the active kernel set over
// pairs of the workload's own sparse vectors (columns for the Lasso
// workloads, rows for the SVM). A step is one input element consumed,
// len(a)+len(b) per call.
func mergeDotStandalone(rec *recorder, out map[string]float64, seed uint64, n int, vec func(i int) ([]int, []float64)) {
	const pairs = 4096
	r := rng.New(seed ^ 0x6d65726765) // "merge": its own stream, apart from the solver's
	left, right := make([]int, pairs), make([]int, pairs)
	var steps int64
	for i := range left {
		left[i], right[i] = r.Intn(n), r.Intn(n)
		ia, _ := vec(left[i])
		ib, _ := vec(right[i])
		steps += int64(len(ia) + len(ib))
	}
	kr := simd.Active()
	per := make([]float64, 0, passes)
	for pass := 0; pass < passes; pass++ {
		id := rec.begin("simd.MergeDot", -1)
		var acc float64
		for i := range left {
			ia, va := vec(left[i])
			ib, vb := vec(right[i])
			acc = kr.MergeDot(acc, ia, va, ib, vb)
		}
		rec.end(id, steps)
		sink = acc
		s := &rec.spans[id]
		per = append(per, float64(s.End-s.Start)/float64(steps))
	}
	out["simd.mergedot_ns_per_step"] = median(per)
}

// sink keeps standalone results alive so the compiler cannot drop the
// measured calls.
var sink float64

// eig8Standalone times mat.LargestEigSym on 8×8 Gram blocks of the
// workload's matrix, the per-iteration step-size computation of the µ=8
// solvers.
func eig8Standalone(rec *recorder, out map[string]float64, seed uint64, a *sparse.CSC) {
	const blocks, mu = 256, 8
	if a.N < mu {
		return
	}
	r := rng.New(seed ^ 0x65696738) // "eig8"
	grams := make([]*mat.Dense, blocks)
	for i := range grams {
		grams[i] = mat.NewDense(mu, mu)
		a.ColGram(r.SampleK(a.N, mu), grams[i])
	}
	per := make([]float64, 0, passes)
	for pass := 0; pass < passes; pass++ {
		id := rec.begin("mat.LargestEigSym", -1)
		var acc float64
		for _, g := range grams {
			acc += mat.LargestEigSym(g)
		}
		rec.end(id, blocks)
		sink = acc
		s := &rec.spans[id]
		per = append(per, float64(s.End-s.Start)/blocks)
	}
	out["mat.eig8_ns"] = median(per)
}

// mpiStandalone measures the fixed and per-message costs under the dist
// workloads: booting a P=2 loopback TCP world with an empty body, and
// Allreduce at the two frame sizes the workloads send (52 words at
// sµ=8, 8512 words at sµ=128).
func mpiStandalone(rec *recorder, out map[string]float64) error {
	tcp := mpi.WorldOptions{TCP: &mpi.TCPOptions{}}
	boot := make([]float64, 0, passes)
	for pass := 0; pass < passes; pass++ {
		id := rec.begin("mpi.RunWorld", -1)
		_, err := mpi.RunWorld(nil, distRanks, mpi.CrayXC30(), tcp, func(*mpi.Comm) error { return nil })
		rec.end(id, 1)
		if err != nil {
			return err
		}
		boot = append(boot, rec.spans[id].ms())
	}
	out["mpi.world_boot_ms"] = median(boot)

	for _, f := range []struct {
		metric string
		words  int
	}{{"mpi.allreduce_small_us", 52}, {"mpi.allreduce_large_us", 8512}} {
		const warm, reps = 50, 400
		var id int32
		_, err := mpi.RunWorld(nil, distRanks, mpi.CrayXC30(), tcp, func(c *mpi.Comm) error {
			buf := make([]float64, f.words)
			for i := 0; i < warm+reps; i++ {
				if i == warm && c.Rank() == 0 {
					id = rec.begin("mpi.Allreduce", -1)
				}
				if err := c.Allreduce(mpi.Sum, buf); err != nil {
					return err
				}
			}
			if c.Rank() == 0 {
				rec.end(id, reps)
			}
			return nil
		})
		if err != nil {
			return err
		}
		out[f.metric] = rec.spans[id].ms() * 1e3 / reps
	}
	return nil
}

// opSample is the cost of one timed op: wall and CPU time as measured, and
// how slow the machine was around it.
type opSample struct {
	wallMs, cpuMs float64
	slow          slowdown
	mallocs       uint64
}

// solveRun is what the timed phase of a solve workload produced.
type solveRun struct {
	attempted, failed int
	plain, traced     []opSample
	rec               *recorder
}

// measure runs ops one after another until `seconds` have passed and at
// least minOps ops are done. Every op does identical work, so the medians
// do not depend on how many ops fit. With trace set, every second op is
// decorated, which puts both kinds under the same machine conditions.
func (c *solveCase) measure(seconds float64, minOps int, trace bool, speed *speedRef) (*solveRun, error) {
	run := &solveRun{rec: &recorder{epoch: time.Now()}}
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	before := speed.read(c.width)
	for i := 0; i < minOps || time.Now().Before(deadline); i++ {
		// Collect the previous op's garbage outside the timed region, so
		// an op is not charged for its predecessor's heap.
		runtime.GC()
		var rec *recorder
		root := int32(-1)
		traced := trace && i%2 == 1
		if traced {
			rec = run.rec
			rec.op = i
		}
		m0, _ := mallocs()
		c0 := cpuTime()
		t0 := time.Now()
		if traced {
			root = rec.begin("op", -1)
		}
		sol, err := c.run(rec, root)
		if traced {
			rec.end(root, 1)
		}
		wall := time.Since(t0)
		c1 := cpuTime()
		m1, _ := mallocs()
		if err != nil {
			return nil, err
		}
		run.attempted++
		if !sol.equal(c.want) {
			run.failed++
		}
		after := speed.read(c.width)
		s := opSample{wallMs: ms(wall), cpuMs: ms(c1 - c0), slow: between(before, after), mallocs: m1 - m0}
		before = after
		if traced {
			run.traced = append(run.traced, s)
		} else {
			run.plain = append(run.plain, s)
		}
	}
	return run, nil
}

func column(ss []opSample, f func(*opSample) float64) []float64 {
	xs := make([]float64, len(ss))
	for i := range ss {
		xs[i] = f(&ss[i])
	}
	return xs
}

// report runs the timed phase of a solve workload and derives its
// metrics.
func (c *solveCase) report(cfg runConfig) (*outcome, *recorder, error) {
	run, err := c.measure(cfg.seconds, cfg.size.minOps, cfg.trace, cfg.speed)
	if err != nil {
		return nil, nil, err
	}
	out := &outcome{
		attempted: run.attempted, failed: run.failed, problems: c.problems,
		samples: len(run.plain), metrics: map[string]float64{},
	}
	wall := func(s *opSample) float64 { return s.wallMs }
	p50 := median(column(run.plain, wall))
	out.rawP50Ms = p50
	out.slowdown = median(column(run.plain, func(s *opSample) float64 { return s.slow.wall }))
	if !cfg.trace {
		// Each op's times at the reference speed, then the medians: one op
		// that shares its interval with a runtime background task does not
		// move them.
		out.metrics["op_p50_ms"] = median(column(run.plain, func(s *opSample) float64 { return s.wallMs / s.slow.wall }))
		out.metrics["op_cpu_ms"] = median(column(run.plain, func(s *opSample) float64 { return s.cpuMs / s.slow.cpu }))
		out.metrics["allocs_per_op"] = median(column(run.plain, func(s *opSample) float64 { return float64(s.mallocs) }))
		return out, nil, nil
	}

	m := out.metrics
	run.rec.op = -1 // the standalone stages belong to no op
	if err := c.standalone(run.rec, m); err != nil {
		return nil, nil, err
	}
	m["core.iters_per_s"] = float64(c.iters) / (p50 / 1e3)
	m["core.sa_vs_classic_relerr"] = c.relerr
	m["trace_overhead_pct"] = 100 * (median(column(run.traced, wall))/p50 - 1)
	m["harness.slowdown"] = out.slowdown
	if st := c.want.stats; st != nil {
		m["mpi.msgs_per_op"] = float64(st.TotalMsgs())
		m["mpi.words_per_op"] = float64(st.TotalWords())
		m["dist.modeled_comm_s"] = st.MaxComm()
	}

	// Per-op layer totals; each metric is the median over the traced ops.
	perOp := map[string][]float64{}
	add := func(name string, v float64) { perOp[name] = append(perOp[name], v) }
	for _, tot := range run.rec.opTotals() {
		op, ok := tot[layerKey{"op", 0}]
		if !ok {
			continue // a standalone stage, not an op
		}
		busy := func(name string, rank int) float64 { return tot[layerKey{name, rank}].ms }
		var children float64
		for _, l := range []struct{ span, metric string }{
			{"sparse.ColGram", "sparse.colgram_ms"},
			{"sparse.ColTMulVec", "sparse.coltmulvec_ms"},
			{"sparse.ColMulAdd", "sparse.colmuladd_ms"},
			{"sparse.MulVec", "sparse.mulvec_ms"},
			{"sparse.RowGram", "sparse.rowgram_ms"},
			{"sparse.RowMulVec", "sparse.rowmulvec_ms"},
			{"sparse.RowTAxpy", "sparse.rowtaxpy_ms"},
		} {
			add(l.metric, busy(l.span, 0))
			children += busy(l.span, 0)
		}
		add("sparse.colgram_calls", float64(tot[layerKey{"sparse.ColGram", 0}].calls))
		add("sparse.rowgram_calls", float64(tot[layerKey{"sparse.RowGram", 0}].calls))
		gram := tot[layerKey{"sparse.ColGram", 0}]
		if g := tot[layerKey{"sparse.RowGram", 0}]; g.calls > 0 {
			gram = g
		}
		if gram.ms > 0 {
			add("sparse.gram_entries_per_s", float64(gram.n)/(gram.ms/1e3))
		}
		var spans int64
		for _, t := range tot {
			spans += t.calls
		}
		add("trace.spans_per_op", float64(spans))

		if c.want.stats == nil {
			solve := busy("core.Lasso", 0) + busy("core.SVM", 0)
			add("core.self_ms", solve-children)
			add("trace.child_share_pct", 100*children/op.ms)
			continue
		}
		var send, recv, comm float64
		for r := 0; r < distRanks; r++ {
			send = math.Max(send, busy("mpi.Send", r))
			recv = math.Max(recv, busy("mpi.Recv", r))
			comm = math.Max(comm, busy("mpi.Send", r)+busy("mpi.Recv", r))
		}
		add("mpi.send_ms", send)
		add("mpi.recv_wait_ms", recv)
		add("dist.measured_comm_s", comm/1e3)
		rank0 := busy("mpi.Send", 0) + busy("mpi.Recv", 0)
		add("dist.self_ms", op.ms-rank0)
		add("trace.child_share_pct", 100*rank0/op.ms)
	}
	for name, vs := range perOp {
		m[name] = median(vs)
	}
	return out, run.rec, nil
}
