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

func TestUnknownTaskExitsWithUsage(t *testing.T) {
	code, _, stderr := runCLI(t, "-data", "x.svm", "-task", "ridge")
	if code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
	if !strings.Contains(stderr, `unknown task "ridge"`) || !strings.Contains(stderr, "-task") {
		t.Fatalf("stderr %q lacks the task error + usage", stderr)
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

func TestStreamRejectsAsync(t *testing.T) {
	code, _, stderr := runCLI(t, "-data", "x.svm", "-stream", "-backend", "async")
	if code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
	if !strings.Contains(stderr, "-stream") {
		t.Fatalf("stderr %q lacks the stream/async conflict", stderr)
	}
}

func TestUnknownLayoutExitsWithUsage(t *testing.T) {
	code, _, stderr := runCLI(t, "-data", "x.svm", "-stream", "-layout", "coo")
	if code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
	if !strings.Contains(stderr, `unknown layout "coo"`) {
		t.Fatalf("stderr %q lacks the layout error", stderr)
	}
}

func TestUnknownCodecExitsWithUsage(t *testing.T) {
	code, _, stderr := runCLI(t, "-data", "x.svm", "-stream", "-codec", "zstd")
	if code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
	if !strings.Contains(stderr, `unknown codec "zstd"`) {
		t.Fatalf("stderr %q lacks the codec error", stderr)
	}
}

// TestReportsKernelSet: every solve names the internal/simd dispatch
// set it ran on, so a recorded log identifies the kernels behind it.
func TestReportsKernelSet(t *testing.T) {
	path := writeTinyDataset(t)
	code, out, stderr := runCLI(t, "-data", path, "-task", "lasso", "-iters", "20")
	if code != 0 {
		t.Fatalf("run failed (%d): %s", code, stderr)
	}
	if want := "kernels: " + saco.KernelSet() + "\n"; !strings.Contains(out, want) {
		t.Fatalf("output lacks %q: %q", want, out)
	}
}

// TestStreamLayoutCodecParity is the CLI face of the format matrix: the
// same solve through every layout × codec × read-mode combination must
// report a byte-identical objective line, and the streaming report must
// name the active layout/codec/read mode and the shard bytes.
func TestStreamLayoutCodecParity(t *testing.T) {
	path := writeTinyDataset(t)
	args := []string{"-data", path, "-task", "lasso", "-iters", "50", "-s", "4", "-mu", "2"}
	code, mem, stderr := runCLI(t, args...)
	if code != 0 {
		t.Fatalf("in-memory run failed (%d): %s", code, stderr)
	}
	want := finalObjective(t, mem)
	for _, layout := range []string{"csr", "csc"} {
		for _, codec := range []string{"raw", "delta"} {
			for _, mmap := range []bool{false, true} {
				run := append(append([]string{}, args...),
					"-stream", "-block-rows", "2", "-layout", layout, "-codec", codec)
				if mmap {
					run = append(run, "-mmap")
				}
				code, out, stderr := runCLI(t, run...)
				if code != 0 {
					t.Fatalf("%s/%s mmap=%v failed (%d): %s", layout, codec, mmap, code, stderr)
				}
				if got := finalObjective(t, out); got != want {
					t.Fatalf("%s/%s mmap=%v: objective %q != %q", layout, codec, mmap, got, want)
				}
				report := "shards: layout=" + layout + " codec=" + codec
				if !strings.Contains(out, report) {
					t.Fatalf("%s/%s: output lacks %q: %q", layout, codec, report, out)
				}
				if !strings.Contains(out, "MiB on disk") {
					t.Fatalf("output lacks the shard-bytes report: %q", out)
				}
				if mmap && !strings.Contains(out, "read=mmap") {
					t.Fatalf("-mmap run does not report read=mmap: %q", out)
				}
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
	objMem := finalObjective(t, mem)
	objStr := finalObjective(t, str)
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
// -backend multicore|async. Alone it is refused with the fix, not run
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
	if got, want := finalObjective(t, par), finalObjective(t, seq); got != want {
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

func finalObjective(t *testing.T, out string) string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "final objective") {
			return line
		}
	}
	t.Fatalf("no final objective in %q", out)
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
