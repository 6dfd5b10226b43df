package main

import (
	"bytes"
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"saco"
)

// runCLI invokes the program seam once and returns its exit code and
// streams.
func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// freeLoopbackAddr reserves an ephemeral loopback port and releases it
// for the cluster's rendezvous. The tiny reuse window is harmless on a
// loopback test host.
func freeLoopbackAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// writeDataset renders a synthetic regression problem to a LIBSVM file
// every rank process (here: goroutine) loads.
func writeDataset(t *testing.T, name string, classification bool) (string, *saco.Dataset) {
	t.Helper()
	var d *saco.Dataset
	if classification {
		d = saco.Classification(name, 29, 160, 80, 0.2, 0.1)
	} else {
		d = saco.Regression(name, 23, 200, 100, 0.15, 6, 0.05)
	}
	path := filepath.Join(t.TempDir(), name+".svm")
	if err := saco.SaveLIBSVM(path, d.AsCSR(), d.B); err != nil {
		t.Fatal(err)
	}
	return path, d
}

// cluster runs one sarank invocation per rank concurrently (each on its
// own goroutine, exactly the per-process flag set) and returns rank 0's
// stdout.
func cluster(t *testing.T, p int, addr string, common []string) string {
	t.Helper()
	outs := make([]bytes.Buffer, p)
	errs := make([]bytes.Buffer, p)
	codes := make([]int, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			args := append([]string{
				"-rank", fmt.Sprint(r), "-size", fmt.Sprint(p), "-addr", addr,
			}, common...)
			codes[r] = run(args, &outs[r], &errs[r])
		}(r)
	}
	wg.Wait()
	for r := 0; r < p; r++ {
		if codes[r] != 0 {
			t.Fatalf("rank %d exited %d: %s", r, codes[r], errs[r].String())
		}
	}
	return outs[0].String()
}

// lineWith extracts the unique output line containing the marker.
func lineWith(t *testing.T, out, marker string) string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, marker) {
			return line
		}
	}
	t.Fatalf("no %q line in output:\n%s", marker, out)
	return ""
}

// TestClusterLassoMatchesSimulatedObjective is the acceptance test of
// the multi-process deployment: a 4-rank loopback CA-Lasso cluster must
// produce a "final objective" line byte-identical to the simulated
// backend's (the same line sasolve -simulate prints and CI byte-diffs).
func TestClusterLassoMatchesSimulatedObjective(t *testing.T) {
	path, _ := writeDataset(t, "sarank-lasso", false)
	a, b, err := saco.LoadLIBSVM(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	lam := 0.1 * saco.LambdaMax(a.ToCSC(), b)
	opt := saco.LassoOptions{
		Lambda: lam, BlockSize: 4, Iters: 400, S: 8, Accelerated: true, Seed: 7,
	}
	ref, err := saco.DistLasso(saco.MatrixSource(a), b, opt, saco.Cluster{P: 4, Machine: saco.CrayXC30()})
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("final objective %.6e  (lambda=%.4g)", ref.Objective, lam)

	out := cluster(t, 4, freeLoopbackAddr(t), []string{
		"-task", "lasso", "-data", path,
		"-lambda-frac", "0.1", "-mu", "4", "-s", "8", "-accel", "-iters", "400", "-seed", "7",
	})
	if got := lineWith(t, out, "final objective"); got != want {
		t.Fatalf("objective line differs from simulated backend:\n tcp: %s\n sim: %s", got, want)
	}
	if !strings.Contains(out, "distributed tcp rank 0/4") {
		t.Fatalf("missing rank stats line:\n%s", out)
	}
}

// TestClusterSVMMatchesSimulatedGap is the column-partitioned twin over
// the dual SVM solver.
func TestClusterSVMMatchesSimulatedGap(t *testing.T) {
	path, _ := writeDataset(t, "sarank-svm", true)
	a, b, err := saco.LoadLIBSVM(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	opt := saco.SVMOptions{Lambda: 1e-3, Iters: 300, S: 8, Seed: 3}
	ref, err := saco.DistSVM(saco.MatrixSource(a), b, opt, saco.Cluster{P: 3, Machine: saco.CrayXC30()})
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("final duality gap %.6e after %d iterations", ref.Gap, ref.Iters)

	out := cluster(t, 3, freeLoopbackAddr(t), []string{
		"-task", "svm", "-data", path,
		"-lambda", "1e-3", "-s", "8", "-iters", "300", "-seed", "3",
	})
	if got := lineWith(t, out, "final duality gap"); got != want {
		t.Fatalf("gap line differs from simulated backend:\n tcp: %s\n sim: %s", got, want)
	}
}

// TestUsageErrors exercises the exit-2 validation paths.
func TestUsageErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"bad rank", []string{"-rank", "4", "-size", "4", "-addr", "x", "-data", "y"}, "need 0 <= rank < size"},
		{"no addr", []string{"-rank", "0", "-size", "2", "-data", "y"}, "-addr is required"},
		{"no data", []string{"-rank", "0", "-size", "2", "-addr", "x"}, "-data is required"},
		{"bad machine", []string{"-rank", "0", "-size", "2", "-addr", "x", "-data", "y", "-machine", "abacus"}, `unknown machine "abacus"`},
		{"bad task", []string{"-rank", "0", "-size", "2", "-addr", "x", "-data", "y", "-task", "ridge"}, `unknown task "ridge"`},
		{"bad loss case", []string{"-rank", "0", "-size", "2", "-addr", "x", "-data", "y", "-task", "svm", "-loss", "L2"}, `unknown loss "L2" (l1, l2)`},
		{"bad loss name", []string{"-rank", "0", "-size", "2", "-addr", "x", "-data", "y", "-task", "svm", "-loss", "squared"}, `unknown loss "squared" (l1, l2)`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, stderr := runCLI(t, tc.args...)
			if code != 2 {
				t.Fatalf("exit %d, want 2; stderr:\n%s", code, stderr)
			}
			if !strings.Contains(stderr, tc.want) {
				t.Fatalf("stderr missing %q:\n%s", tc.want, stderr)
			}
		})
	}
}
