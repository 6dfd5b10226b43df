package main

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"saco"
)

// writeTinyDataset writes a small solvable LIBSVM file.
func writeTinyDataset(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "tiny.svm")
	data := `1 1:1 3:0.5
-1 2:-1 4:2
1 1:0.3 4:-1
-1 3:1.5
1 2:0.7 3:-0.2
-1 1:-0.4 4:0.9
`
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestUnknownBackendExitsWithUsage(t *testing.T) {
	code, _, stderr := runCLI(t, "-data", "x.svm", "-backend", "bogus")
	if code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
	if !strings.Contains(stderr, `unknown backend "bogus"`) {
		t.Fatalf("stderr %q lacks the backend error", stderr)
	}
	if !strings.Contains(stderr, "-backend") || !strings.Contains(stderr, "-task") {
		t.Fatalf("stderr %q lacks the usage listing", stderr)
	}
}

// TestUnknownTaskExitsWithUsage also covers pegasos, a task value whose
// trainer was removed: the error lists the accepted values.
func TestUnknownTaskExitsWithUsage(t *testing.T) {
	for _, task := range []string{"ridge", "pegasos"} {
		code, _, stderr := runCLI(t, "-data", "x.svm", "-task", task)
		if code != 2 {
			t.Fatalf("-task %s: exit code %d, want 2", task, code)
		}
		if !strings.Contains(stderr, `unknown task "`+task+`" (lasso, svm)`) || !strings.Contains(stderr, "-task") {
			t.Fatalf("-task %s: stderr %q lacks the task error + usage", task, stderr)
		}
	}
}

func TestMissingDataExitsWithUsage(t *testing.T) {
	code, _, stderr := runCLI(t)
	if code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
	if !strings.Contains(stderr, "-data is required") {
		t.Fatalf("stderr %q lacks the -data message", stderr)
	}
}

func TestUnknownFlagExitsNonZero(t *testing.T) {
	code, _, stderr := runCLI(t, "-definitely-not-a-flag")
	if code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
	if !strings.Contains(stderr, "definitely-not-a-flag") {
		t.Fatalf("stderr %q lacks the flag name", stderr)
	}
}

func TestUnknownMachineExitsWithUsage(t *testing.T) {
	code, _, stderr := runCLI(t, "-data", "x.svm", "-simulate", "4", "-machine", "abacus")
	if code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
	if !strings.Contains(stderr, `unknown machine "abacus"`) {
		t.Fatalf("stderr %q lacks the machine error", stderr)
	}
}

// TestEveryFlagHasOneMeaning: a flag combination that would silently
// ignore one of its flags is a usage error naming both.
func TestEveryFlagHasOneMeaning(t *testing.T) {
	path := writeTinyDataset(t)
	for _, tc := range []struct {
		args []string
		want []string
	}{
		{[]string{"-simulate", "-2"}, []string{"-simulate -2"}},
		{[]string{"-transport", "tcp"}, []string{"-transport tcp", "-simulate"}},
		{[]string{"-rank-workers", "2"}, []string{"-rank-workers 2", "-simulate"}},
		{[]string{"-simulate", "2", "-backend", "multicore"}, []string{"-simulate", "-backend multicore"}},
		{[]string{"-stream", "-backend", "multicore"}, []string{"-stream", "-backend multicore"}},
		{[]string{"-task", "lasso", "-backend", "async"}, []string{`unknown backend "async"`}},
		{[]string{"-task", "lasso", "-tol", "0.5"}, []string{"-tol", "-task lasso"}},
		{[]string{"-task", "lasso", "-lambda", "2"}, []string{"-lambda", "-task lasso"}},
		{[]string{"-task", "lasso", "-loss", "l2"}, []string{"-loss", "-task lasso"}},
		{[]string{"-task", "svm", "-lambda-frac", "0.2"}, []string{"-lambda-frac", "-task svm"}},
		{[]string{"-task", "svm", "-mu", "4"}, []string{"-mu", "-task svm"}},
		{[]string{"-task", "svm", "-accel"}, []string{"-accel", "-task svm"}},
	} {
		code, _, stderr := runCLI(t, append([]string{"-data", path, "-iters", "10"}, tc.args...)...)
		if code != 2 {
			t.Fatalf("%q: exit %d, want 2: %s", tc.args, code, stderr)
		}
		for _, w := range tc.want {
			if !strings.Contains(stderr, w) {
				t.Fatalf("%q: stderr %q does not name %q", tc.args, stderr, w)
			}
		}
	}
}

// TestUnrollingAboveItersIsClamped: no batch holds more than -iters
// blocks, so -s 100000 -iters 10 sizes nothing by s and prints the
// final line of -s 10, for both tasks, locally and distributed.
func TestUnrollingAboveItersIsClamped(t *testing.T) {
	path := writeTinyDataset(t)
	for _, task := range []string{"lasso", "svm"} {
		for _, where := range [][]string{nil, {"-simulate", "2"}} {
			args := append([]string{"-data", path, "-task", task, "-iters", "10"}, where...)
			code, huge, stderr := runCLI(t, append(args, "-s", "100000")...)
			if code != 0 {
				t.Fatalf("%s %q -s 100000: exit %d: %s", task, where, code, stderr)
			}
			code, want, stderr := runCLI(t, append(args, "-s", "10")...)
			if code != 0 {
				t.Fatalf("%s %q -s 10: exit %d: %s", task, where, code, stderr)
			}
			if got, want := finalLine(t, huge), finalLine(t, want); got != want {
				t.Fatalf("%s %q: -s 100000 printed %q, -s 10 %q", task, where, got, want)
			}
		}
	}
}

// TestStreamTaskLayout is the CLI face of the streamed store: -stream
// spills the layout the task reads (csc for lasso's columns, csr for
// svm's rows), names it in the report, and prints the in-memory run's
// final line byte for byte — locally and under -simulate 2, whose rank
// loaders take the one block-loader path. A cache built by one task and
// reused by the other keeps its layout, converts per load, and still
// matches.
func TestStreamTaskLayout(t *testing.T) {
	path := writeTinyDataset(t)
	tasks := []struct {
		task, layout string
		flags        []string
	}{
		{"lasso", "csc", []string{"-iters", "50", "-s", "4", "-mu", "2"}},
		{"svm", "csr", []string{"-iters", "60", "-s", "4"}},
	}
	caches := make(map[string]string) // task -> the cache its stream run built
	for _, tc := range tasks {
		caches[tc.task] = t.TempDir()
		for _, where := range [][]string{nil, {"-simulate", "2"}} {
			args := append(append([]string{"-data", path, "-task", tc.task}, tc.flags...), where...)
			code, mem, stderr := runCLI(t, args...)
			if code != 0 {
				t.Fatalf("%s %v in memory failed (%d): %s", tc.task, where, code, stderr)
			}
			code, str, stderr := runCLI(t, append(args, "-stream", "-block-rows", "2", "-cache-dir", caches[tc.task])...)
			if code != 0 {
				t.Fatalf("%s %v streamed failed (%d): %s", tc.task, where, code, stderr)
			}
			if report := "shards: layout=" + tc.layout + ", "; !strings.Contains(str, report) {
				t.Fatalf("%s %v: output lacks %q: %q", tc.task, where, report, str)
			}
			if got, want := finalLine(t, str), finalLine(t, mem); got != want {
				t.Fatalf("%s %v: streamed %q != in-memory %q", tc.task, where, got, want)
			}
		}
	}
	// Cross reuse: each task solves over the cache the other one built.
	for i, tc := range tasks {
		other := tasks[1-i]
		args := append([]string{"-data", path, "-task", tc.task}, tc.flags...)
		code, mem, stderr := runCLI(t, args...)
		if code != 0 {
			t.Fatalf("%s in memory failed (%d): %s", tc.task, code, stderr)
		}
		code, str, stderr := runCLI(t, append(args, "-stream", "-cache-dir", caches[other.task])...)
		if code != 0 {
			t.Fatalf("%s over the %s cache failed (%d): %s", tc.task, other.task, code, stderr)
		}
		if !strings.Contains(str, "reusing shard cache") || !strings.Contains(str, "layout="+other.layout+", ") {
			t.Fatalf("%s did not reuse the %s cache in its layout: %q", tc.task, other.layout, str)
		}
		if got, want := finalLine(t, str), finalLine(t, mem); got != want {
			t.Fatalf("%s over the %s cache: %q != in-memory %q", tc.task, other.layout, got, want)
		}
	}
}

// TestEmptyInputExitsOne: a data file with no rows is a data error on
// every path — each task, in memory, streamed and streamed under a
// simulated cluster — never a panic.
func TestEmptyInputExitsOne(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.svm")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, task := range []string{"lasso", "svm"} {
		for _, extra := range [][]string{nil, {"-stream"}, {"-stream", "-simulate", "2"}} {
			code, _, stderr := runCLI(t, append([]string{"-data", path, "-task", task, "-iters", "20"}, extra...)...)
			if code != 1 || strings.Contains(stderr, "panic") || !strings.Contains(stderr, "core: ") {
				t.Fatalf("%s %v: exit %d, stderr %q; want 1 with a core: error", task, extra, code, stderr)
			}
		}
	}
}

func TestHelpExitsZero(t *testing.T) {
	code, _, stderr := runCLI(t, "-h")
	if code != 0 {
		t.Fatalf("-h exit code %d, want 0", code)
	}
	if !strings.Contains(stderr, "-data") {
		t.Fatalf("-h did not print usage: %q", stderr)
	}
}

func TestMissingFileExitsOne(t *testing.T) {
	code, _, stderr := runCLI(t, "-data", filepath.Join(t.TempDir(), "nope.svm"))
	if code != 1 {
		t.Fatalf("exit code %d, want 1: %s", code, stderr)
	}
}

// TestNonFiniteInputExitsOne: a NaN or Inf in the data is a data error
// naming its line, on both data paths — not a solve that reports a NaN
// objective and exits 0.
func TestNonFiniteInputExitsOne(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nan.svm")
	if err := os.WriteFile(path, []byte("1 1:1 2:0.5\n-1 2:-1\n1 1:nan 2:1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, extra := range [][]string{nil, {"-stream"}} {
		code, _, stderr := runCLI(t, append([]string{"-data", path, "-task", "lasso", "-iters", "20"}, extra...)...)
		if code != 1 || !strings.Contains(stderr, `line 3: bad value "nan": not finite`) {
			t.Fatalf("%v: exit %d, stderr %q; want 1 naming line 3", extra, code, stderr)
		}
	}
}

// TestNonFiniteLambdaExitsOne: a λ that is NaN or ±Inf — given
// directly (-lambda) or reached by -lambda-frac, where 1e308·‖Aᵀb‖∞
// overflows — is refused before the solve on every path, exiting 1
// promptly with core's message naming the value, not a run that prints
// a NaN objective and exits 0.
func TestNonFiniteLambdaExitsOne(t *testing.T) {
	path := writeTinyDataset(t)
	cases := []struct {
		args []string
		got  string
	}{
		{[]string{"-task", "lasso", "-lambda-frac", "nan"}, "got NaN"},
		{[]string{"-task", "lasso", "-lambda-frac", "inf"}, "got +Inf"},
		{[]string{"-task", "lasso", "-lambda-frac", "1e308"}, "got +Inf"},
		{[]string{"-task", "svm", "-lambda", "nan"}, "got NaN"},
		{[]string{"-task", "svm", "-lambda", "inf"}, "got +Inf"},
	}
	for _, c := range cases {
		for _, extra := range [][]string{nil, {"-simulate", "2"}, {"-stream"}} {
			args := append(append([]string{"-data", path, "-iters", "20"}, c.args...), extra...)
			code, stderr := runWithin(t, 10*time.Second, args...)
			if code != 1 || !strings.Contains(stderr, "core: Lambda must be finite") || !strings.Contains(stderr, c.got) {
				t.Errorf("%v: exit %d, stderr %q; want 1 naming λ (%s)", args, code, stderr, c.got)
			}
		}
	}
}

// runWithin runs the CLI and fails the test unless it returns within d.
func runWithin(t *testing.T, d time.Duration, args ...string) (code int, stderr string) {
	t.Helper()
	type result struct {
		code   int
		stderr string
	}
	done := make(chan result, 1)
	go func() {
		var out, errb bytes.Buffer
		code := run(args, &out, &errb)
		done <- result{code, errb.String()}
	}()
	select {
	case r := <-done:
		return r.code, r.stderr
	case <-time.After(d):
		t.Fatalf("%v: no exit within %v", args, d)
		return 0, ""
	}
}

// TestGramSizeBombExitsOne: an -s·-mu whose batch Gram would pass
// core's cap of 2²⁸ entries (here k = 300 000, a 670 GiB Gram, and
// k = 100 000 for the SVM) exits 1 within a second with core's typed
// refusal naming s and µ, locally and under -simulate 2 — never a
// runtime out-of-memory crash.
func TestGramSizeBombExitsOne(t *testing.T) {
	path := writeTinyDataset(t)
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-task", "lasso", "-iters", "100000", "-s", "100000", "-mu", "3"}, "core: s=100000 blocks of µ=3 need a 300000×300000 batch Gram"},
		{[]string{"-task", "svm", "-iters", "100000", "-s", "100000"}, "core: s=100000 blocks of µ=1 need a 100000×100000 batch Gram"},
	}
	for _, c := range cases {
		for _, extra := range [][]string{nil, {"-simulate", "2"}} {
			args := append(append([]string{"-data", path}, c.args...), extra...)
			code, stderr := runWithin(t, time.Second, args...)
			if code != 1 || !strings.Contains(stderr, c.want) || !strings.Contains(stderr, "past the cap of 268435456 entries") {
				t.Errorf("%v: exit %d, stderr %q; want 1 with %q", args, code, stderr, c.want)
			}
		}
	}
}

// TestStreamMatchesInMemory runs the same tiny solve through both data
// paths and asserts identical reported objectives (the CLI face of the
// bitwise-parity contract).
func TestStreamMatchesInMemory(t *testing.T) {
	path := writeTinyDataset(t)
	args := []string{"-data", path, "-task", "lasso", "-iters", "50", "-s", "4", "-mu", "2"}
	code, mem, stderr := runCLI(t, args...)
	if code != 0 {
		t.Fatalf("in-memory run failed (%d): %s", code, stderr)
	}
	code, str, stderr := runCLI(t, append(args, "-stream", "-block-rows", "2")...)
	if code != 0 {
		t.Fatalf("streaming run failed (%d): %s", code, stderr)
	}
	objMem := finalLine(t, mem)
	objStr := finalLine(t, str)
	if objMem != objStr {
		t.Fatalf("objectives differ: %q vs %q", objMem, objStr)
	}
	if !strings.Contains(str, "shards x 2 rows") {
		t.Fatalf("streaming output lacks shard report: %q", str)
	}
	for _, out := range []string{mem, str} {
		if !strings.Contains(out, "peak RSS") && !strings.Contains(out, "runtime sys") {
			t.Fatalf("output lacks memory report: %q", out)
		}
	}
}

// TestCacheDirReuse solves twice against the same cache directory; the
// second run must reuse the shards instead of re-ingesting.
func TestCacheDirReuse(t *testing.T) {
	path := writeTinyDataset(t)
	cache := t.TempDir()
	args := []string{"-data", path, "-task", "svm", "-iters", "30", "-stream", "-cache-dir", cache}
	if code, _, stderr := runCLI(t, args...); code != 0 {
		t.Fatalf("first run failed: %s", stderr)
	}
	code, out, stderr := runCLI(t, args...)
	if code != 0 {
		t.Fatalf("second run failed: %s", stderr)
	}
	if !strings.Contains(out, "reusing shard cache") {
		t.Fatalf("second run did not reuse the cache: %q", out)
	}

	// A different dataset against the same cache must be refused, not
	// silently solved from the stale shards.
	other := filepath.Join(t.TempDir(), "other.svm")
	if err := os.WriteFile(other, []byte("1 1:1\n-1 2:2\n1 3:0.5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, stderr = runCLI(t, "-data", other, "-task", "svm", "-iters", "30", "-stream", "-cache-dir", cache)
	if code != 1 || !strings.Contains(stderr, "different data") {
		t.Fatalf("stale cache not rejected: code %d stderr %q", code, stderr)
	}
}

// TestModelOutput checks the -out model on the streaming path.
func TestModelOutput(t *testing.T) {
	path := writeTinyDataset(t)
	outPath := filepath.Join(t.TempDir(), "model.sacm")
	code, _, stderr := runCLI(t, "-data", path, "-task", "lasso", "-iters", "20",
		"-stream", "-block-rows", "3", "-out", outPath)
	if code != 0 {
		t.Fatalf("run failed: %s", stderr)
	}
	m, err := saco.LoadModel(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if m.Features != 4 || m.TrainRows != 6 {
		t.Fatalf("model is %d features from %d rows, want 4 from 6", m.Features, m.TrainRows)
	}
}

// TestBinaryModelOutput: -out writes the versioned binary format with
// provenance — the task kind, the training rows and the resolved lambda
// — whatever the file is called: a model.txt is the same bytes as a
// model.sacm, and the facade loader round-trips both.
func TestBinaryModelOutput(t *testing.T) {
	path := writeTinyDataset(t)
	dir := t.TempDir()
	txtPath := filepath.Join(dir, "model.txt")
	binPath := filepath.Join(dir, "model.sacm")
	for _, out := range []string{txtPath, binPath} {
		code, stdout, stderr := runCLI(t, "-data", path, "-task", "lasso", "-iters", "40", "-out", out)
		if code != 0 {
			t.Fatalf("-out %s failed: %s", out, stderr)
		}
		if !strings.Contains(stdout, "binary model written to "+out) {
			t.Fatalf("stdout %q lacks the binary write report", stdout)
		}
	}
	bm, err := saco.LoadModel(txtPath)
	if err != nil {
		t.Fatalf("-out model.txt is not a loadable model: %v", err)
	}
	if bm.Kind != saco.KindLasso {
		t.Fatalf("kind: binary %v", bm.Kind)
	}
	if bm.TrainRows != 6 || bm.Lambda <= 0 {
		t.Fatalf("provenance: rows %d lambda %v", bm.TrainRows, bm.Lambda)
	}
	txt, err := os.ReadFile(txtPath)
	if err != nil {
		t.Fatal(err)
	}
	bin, err := os.ReadFile(binPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(txt, bin) {
		t.Fatal("the -out suffix changed the bytes written (same solve must produce identical models)")
	}

	// SVM task stamps its kind too.
	svmPath := filepath.Join(dir, "svm.bin")
	if code, _, stderr := runCLI(t, "-data", path, "-task", "svm", "-iters", "200", "-out", svmPath); code != 0 {
		t.Fatalf("svm run failed: %s", stderr)
	}
	sm, err := saco.LoadModel(svmPath)
	if err != nil {
		t.Fatal(err)
	}
	if sm.Kind != saco.KindSVM || sm.Lambda != 1 {
		t.Fatalf("svm model: kind %v lambda %v", sm.Kind, sm.Lambda)
	}
}

// TestWorkersIsTheParallelWidth: -workers means one thing, the width of
// -backend multicore. Alone it is refused with the fix, not run
// sequentially; with the multicore backend the solve is bitwise the
// sequential one.
func TestWorkersIsTheParallelWidth(t *testing.T) {
	path := writeTinyDataset(t)
	args := []string{"-data", path, "-task", "lasso", "-iters", "50", "-s", "4", "-mu", "2"}
	code, _, stderr := runCLI(t, append(args, "-workers", "4")...)
	if code != 2 || !strings.Contains(stderr, "-backend multicore") {
		t.Fatalf("-workers 4 alone: exit %d, stderr %q; want 2 and the -backend hint", code, stderr)
	}
	code, seq, stderr := runCLI(t, args...)
	if code != 0 {
		t.Fatalf("sequential run failed (%d): %s", code, stderr)
	}
	code, par, stderr := runCLI(t, append(args, "-backend", "multicore", "-workers", "4")...)
	if code != 0 {
		t.Fatalf("multicore run failed (%d): %s", code, stderr)
	}
	if got, want := finalLine(t, par), finalLine(t, seq); got != want {
		t.Fatalf("multicore objective %q != sequential %q", got, want)
	}
}

// TestLossValidation: -loss accepts exactly l1 and l2; anything else is
// a usage error naming them instead of a silent hinge fit.
func TestLossValidation(t *testing.T) {
	path := writeTinyDataset(t)
	for _, tc := range []struct {
		loss string
		code int
	}{
		{"l1", 0}, {"l2", 0}, {"L2", 2}, {"squared", 2}, {"", 2},
	} {
		code, _, stderr := runCLI(t, "-data", path, "-task", "svm", "-iters", "30", "-loss", tc.loss)
		if code != tc.code {
			t.Fatalf("-loss %q: exit %d, want %d: %s", tc.loss, code, tc.code, stderr)
		}
		if tc.code == 2 && !strings.Contains(stderr, "(l1, l2)") {
			t.Fatalf("-loss %q: stderr %q does not list the accepted values", tc.loss, stderr)
		}
	}
}

// finalLine returns a run's "final …" line: the objective of a lasso
// solve, the duality gap of an svm one.
func finalLine(t *testing.T, out string) string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "final ") {
			return line
		}
	}
	t.Fatalf("no final line in %q", out)
	return ""
}

// trackedLines returns the "iter …" convergence lines of a run's stdout.
func trackedLines(out string) []string {
	var lines []string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "iter ") {
			lines = append(lines, line)
		}
	}
	return lines
}

// TestSimulateTrackMatchesSarank: -simulate P -track N prints rank 0's
// tracked points through the reporter sarank uses, so the lines of the
// simulated world, of the in-process TCP mesh and of a real 3-process
// sarank cluster given the same flags are the same bytes. (Before the
// shared reporter, sasolve paid for every tracked objective and printed
// none.)
func TestSimulateTrackMatchesSarank(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the sarank binary and runs a 3-process loopback cluster")
	}
	sarank := filepath.Join(t.TempDir(), "sarank")
	if out, err := exec.Command("go", "build", "-o", sarank, "saco/cmd/sarank").CombinedOutput(); err != nil {
		t.Fatalf("building sarank: %v\n%s", err, out)
	}
	dir := t.TempDir()
	reg := saco.Regression("track-lasso", 23, 200, 100, 0.15, 6, 0.05)
	cls := saco.Classification("track-svm", 29, 160, 80, 0.2, 0.1)
	for _, tc := range []struct {
		task, what string
		d          *saco.Dataset
		flags      []string
	}{
		{"lasso", "objective", reg, []string{"-lambda-frac", "0.1", "-mu", "4", "-s", "8", "-accel", "-iters", "400", "-seed", "7", "-track", "80"}},
		{"svm", "gap", cls, []string{"-lambda", "1e-3", "-s", "8", "-iters", "300", "-seed", "3", "-track", "60"}},
	} {
		t.Run(tc.task, func(t *testing.T) {
			path := filepath.Join(dir, tc.task+".svm")
			if err := saco.SaveLIBSVM(path, tc.d.AsCSR(), tc.d.B); err != nil {
				t.Fatal(err)
			}
			common := append([]string{"-task", tc.task, "-data", path}, tc.flags...)

			code, sim, stderr := runCLI(t, append(common, "-simulate", "3")...)
			if code != 0 {
				t.Fatalf("-simulate 3 failed (%d): %s", code, stderr)
			}
			want := trackedLines(sim)
			if len(want) != 5 || !strings.Contains(want[0], "  "+tc.what+" ") {
				t.Fatalf("-simulate 3 -track printed %q, want 5 tracked %s lines", want, tc.what)
			}
			code, tcp, stderr := runCLI(t, append(common, "-simulate", "3", "-transport", "tcp")...)
			if code != 0 {
				t.Fatalf("-transport tcp failed (%d): %s", code, stderr)
			}
			if got := trackedLines(tcp); !slices.Equal(got, want) {
				t.Fatalf("tracked lines differ, tcp vs sim:\n%q\n%q", got, want)
			}

			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			addr := ln.Addr().String()
			ln.Close()
			outs := make([]bytes.Buffer, 3)
			errs := make([]bytes.Buffer, 3)
			ranks := make([]*exec.Cmd, 3)
			for r := range ranks {
				ranks[r] = exec.Command(sarank, append([]string{"-rank", fmt.Sprint(r), "-size", "3", "-addr", addr}, common...)...)
				ranks[r].Stdout, ranks[r].Stderr = &outs[r], &errs[r]
				if err := ranks[r].Start(); err != nil {
					t.Fatal(err)
				}
			}
			for r, cmd := range ranks {
				if err := cmd.Wait(); err != nil {
					t.Errorf("sarank rank %d: %v\n%s", r, err, errs[r].String())
				}
			}
			if got := trackedLines(outs[0].String()); !slices.Equal(got, want) {
				t.Fatalf("tracked lines differ, sarank cluster vs sasolve -simulate:\n%q\n%q", got, want)
			}
		})
	}
}
