package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

// Every test runs the short sizes: the same code paths and checks as the
// measured sizes, in milliseconds per op.
func shortConfig(seed uint64, trace bool) runConfig {
	return runConfig{seed: seed, seconds: 0.02, trace: trace, size: &shortSize, setups: 1}
}

func mustRun(t *testing.T, name string, cfg runConfig) *outcome {
	t.Helper()
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	out, err := runWorkload(w, cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return out
}

// benchmarkJSON is BENCHMARK.json as the driver reads it.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func TestNamesAndUnitsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.Paths, []string{"benchmarks"}) || !reflect.DeepEqual(b.Command, []string{"bash", "benchmarks/run.sh"}) {
		t.Errorf("command %v, paths %v", b.Command, b.Paths)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if !reflect.DeepEqual(names, have) {
		t.Errorf("workloads: BENCHMARK.json %v, program %v", names, have)
	}
	var e2e, layers []metricDef
	sawSetup := false
	for _, m := range b.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			sawSetup = m.Unit == "s" && m.Better == "lower"
		}
	}
	for _, m := range b.PerLayer {
		layers = append(layers, metricDef{m.Name, m.Unit})
	}
	if !sawSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end: BENCHMARK.json %v, program %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layers, perLayer) {
		t.Errorf("per_layer: BENCHMARK.json %v, program %v", layers, perLayer)
	}
}

// TestEveryWorkloadReportsEveryMetric runs each workload both ways and
// checks the reported names against the tables, and that every output
// check passes.
func TestEveryWorkloadReportsEveryMetric(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			out := mustRun(t, w.name, shortConfig(1, trace))
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			var want, got []string
			for _, d := range defs {
				want = append(want, d.name)
			}
			for name, v := range out.metrics {
				got = append(got, name)
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s trace=%v: %s = %v", w.name, trace, name, v)
				}
				if !trace && v <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, name, v)
				}
			}
			sort.Strings(want)
			sort.Strings(got)
			if !reflect.DeepEqual(want, got) {
				t.Errorf("%s trace=%v: metrics %v, want %v", w.name, trace, got, want)
			}
			if !out.correct() || out.attempted < 1 {
				t.Errorf("%s trace=%v: attempted %d, failed %d, problems %v", w.name, trace, out.attempted, out.failed, out.problems)
			}
		}
	}
}

// TestLastLineIsTheResult drives the command line the way the driver
// does and decodes the last line of standard output strictly.
func TestLastLineIsTheResult(t *testing.T) {
	for _, trace := range []string{"0", "1"} {
		var stdout, stderr bytes.Buffer
		args := []string{"--workload", "lasso-classic", "--seed", "3", "--seconds", "0.02", "--trace", trace, "--short"}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("exit %d: %s", code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var res jsonResult
		dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&res); err != nil {
			t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
		}
		want := len(endToEnd)
		if trace == "1" {
			want = len(perLayer)
		}
		if !res.Correct || res.Attempted < 1 || res.Failed != 0 || len(res.Metrics) != want {
			t.Errorf("trace %s: %+v", trace, res)
		}
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--workload", "no-such"}, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
		t.Errorf("unknown workload: exit %d, stdout %q", code, stdout.String())
	}
}

// TestDecoratorsArePureObservers: a decorated solve returns the same bits
// as an undecorated one, and leaves spans behind.
func TestDecoratorsArePureObservers(t *testing.T) {
	cases := map[string]func() (*solveCase, error){
		"lasso-sa":      func() (*solveCase, error) { return newLassoSA(5, &shortSize) },
		"lasso-classic": func() (*solveCase, error) { return newLassoClassic(5, &shortSize) },
		"svm-sa":        func() (*solveCase, error) { return newSVMSA(5, &shortSize) },
		"dist-lasso-sa": func() (*solveCase, error) { return newDistLasso(5, &shortSize, shortSize.distSA, 16) },
	}
	for name, setup := range cases {
		c, err := setup()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		plain, err := c.run(nil, -1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rec := &recorder{epoch: time.Now()}
		root := rec.begin("op", -1)
		traced, err := c.run(rec, root)
		rec.end(root, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !plain.equal(traced) || !traced.equal(c.want) {
			t.Errorf("%s: decorated solve differs from the undecorated one", name)
		}
		if len(rec.spans) < 3 {
			t.Errorf("%s: %d spans recorded", name, len(rec.spans))
		}
		for _, s := range rec.spans[1:] {
			if s.Parent < 0 || s.End < s.Start {
				t.Errorf("%s: span %+v has no parent or ends before it starts", name, s)
				break
			}
		}
	}
}

// TestCorruptedReferenceFailsTheOp: the output check is live — one flipped
// bit in the reference makes every op count as failed.
func TestCorruptedReferenceFailsTheOp(t *testing.T) {
	c, err := newLassoSA(7, &shortSize)
	if err != nil {
		t.Fatal(err)
	}
	c.want.x[0] = math.Float64frombits(math.Float64bits(c.want.x[0]) ^ 1)
	run, err := c.measure(0, 3, false, newSpeedRef())
	if err != nil {
		t.Fatal(err)
	}
	if run.attempted != 3 || run.failed != 3 {
		t.Errorf("solve: attempted %d, failed %d, want 3 and 3", run.attempted, run.failed)
	}

	s, err := newServeCase(7, &shortSize, shortSize.predict)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	for i := range s.requests {
		w := s.requests[i].want
		w[len(w)-1] = math.Float64frombits(math.Float64bits(w[len(w)-1]) ^ 1)
	}
	load, err := s.load(0, 8, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(load.latMs) != 8 || load.failed != 8 {
		t.Errorf("serve: attempted %d, failed %d, want 8 and 8", len(load.latMs), load.failed)
	}
}

// TestSeedDrivesTheInputs: another seed gives other inputs; the same seed
// reproduces the program's own counts exactly.
func TestSeedDrivesTheInputs(t *testing.T) {
	a, err := newLassoSA(11, &shortSize)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newLassoSA(12, &shortSize)
	if err != nil {
		t.Fatal(err)
	}
	if a.want.equal(b.want) {
		t.Error("seeds 11 and 12 produced the same solution")
	}

	for _, tc := range []struct {
		workload, metric string
		trace            bool
	}{
		{"lasso-sa", "allocs_per_op", false},
		{"lasso-classic", "allocs_per_op", false},
		{"svm-sa", "allocs_per_op", false},
		{"lasso-sa", "sparse.colgram_calls", true},
		{"lasso-classic", "sparse.colgram_calls", true},
		{"svm-sa", "sparse.rowgram_calls", true},
		{"dist-lasso-s1", "mpi.msgs_per_op", true},
		{"dist-lasso-sa", "mpi.msgs_per_op", true},
	} {
		first := mustRun(t, tc.workload, shortConfig(11, tc.trace)).metrics[tc.metric]
		again := mustRun(t, tc.workload, shortConfig(11, tc.trace)).metrics[tc.metric]
		if first != again || first <= 0 {
			t.Errorf("%s %s: %v then %v with the same seed", tc.workload, tc.metric, first, again)
		}
	}
	s1 := mustRun(t, "dist-lasso-s1", shortConfig(11, true)).metrics["mpi.msgs_per_op"]
	sa := mustRun(t, "dist-lasso-sa", shortConfig(11, true)).metrics["mpi.msgs_per_op"]
	if s1 != 16*sa {
		t.Errorf("msgs_per_op: s=1 sends %v, s=16 sends %v, want exactly 16x fewer", s1, sa)
	}
}

// TestSpeedReadingIsAPureObserver: a reading of the machine's speed
// allocates nothing, so it leaves no garbage for the next op's collector,
// and the reference work is the same on every run.
func TestSpeedReadingIsAPureObserver(t *testing.T) {
	a, b := newSpeedRef(), newSpeedRef()
	if !reflect.DeepEqual(a, b) {
		t.Error("two reference pools differ")
	}
	if n := testing.AllocsPerRun(3, func() { a.read(1) }); n != 0 {
		t.Errorf("a reading allocates %v objects", n)
	}
	for width := 1; width <= maxWidth; width++ {
		if s := a.read(width); !(s.wall > 0 && s.cpu > 0) {
			t.Errorf("width %d: reading %+v, want positive slowdowns", width, s)
		}
	}
}
