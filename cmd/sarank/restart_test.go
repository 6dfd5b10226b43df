package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"saco"
	"saco/internal/dist"
)

// clusterWith is cluster() plus per-rank extra flags — the kill drill
// and the resume flow need one rank configured differently.
func clusterWith(t *testing.T, p int, addr string, common []string, perRank map[int][]string) (string, []string) {
	t.Helper()
	outs, stderrs, codes := runCluster(p, addr, common, perRank)
	for r := 0; r < p; r++ {
		if codes[r] != 0 {
			t.Fatalf("rank %d exited %d: %s", r, codes[r], stderrs[r])
		}
	}
	return outs[0], stderrs
}

// runCluster runs p ranks in-process and returns each one's stdout,
// stderr and exit code.
func runCluster(p int, addr string, common []string, perRank map[int][]string) (outs, stderrs []string, codes []int) {
	outb := make([]bytes.Buffer, p)
	errb := make([]bytes.Buffer, p)
	codes = make([]int, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			args := append([]string{
				"-rank", fmt.Sprint(r), "-size", fmt.Sprint(p), "-addr", addr,
			}, common...)
			args = append(args, perRank[r]...)
			codes[r] = run(args, &outb[r], &errb[r])
		}(r)
	}
	wg.Wait()
	outs, stderrs = make([]string, p), make([]string, p)
	for r := range outs {
		outs[r], stderrs[r] = outb[r].String(), errb[r].String()
	}
	return outs, stderrs, codes
}

// TestClusterKillRestartResume: a rank whose transport is killed
// mid-solve (the -fault-kill-send drill) must rejoin at a higher epoch,
// resume from the agreed checkpoint together with the surviving ranks,
// and still produce a "final objective" line byte-identical to the
// uninterrupted simulated backend.
func TestClusterKillRestartResume(t *testing.T) {
	path, _ := writeDataset(t, "sarank-restart", false)
	a, b, err := saco.LoadLIBSVM(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	lam := 0.1 * saco.LambdaMax(a.ToCSC(), b)
	opt := saco.LassoOptions{Lambda: lam, BlockSize: 4, Iters: 400, S: 8, Seed: 7}
	ref, err := saco.DistLasso(saco.MatrixSource(a), b, opt, saco.Cluster{P: 3, Machine: saco.CrayXC30()})
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("final objective %.6e  (lambda=%.4g)", ref.Objective, lam)

	common := []string{
		"-task", "lasso", "-data", path,
		"-lambda-frac", "0.1", "-mu", "4", "-s", "8", "-iters", "400", "-seed", "7",
		"-ckpt-dir", t.TempDir(), "-ckpt-every", "2", "-max-restarts", "3",
	}
	out, stderrs := clusterWith(t, 3, freeLoopbackAddr(t), common,
		map[int][]string{1: {"-fault-kill-send", "25"}})
	if got := lineWith(t, out, "final objective"); got != want {
		t.Fatalf("objective line after kill+restart differs from simulated backend:\n tcp: %s\n sim: %s", got, want)
	}
	// Every rank must have gone through at least one supervised rejoin.
	for r, se := range stderrs {
		if !strings.Contains(se, "rejoining at epoch") {
			t.Fatalf("rank %d never rejoined; stderr:\n%s", r, se)
		}
	}
}

// TestClusterResumeFlag: a cluster restarted with -resume (the
// restarted-process flow: world epoch unknown) reloads the agreed
// checkpoint and reports the same final line as the original run.
func TestClusterResumeFlag(t *testing.T) {
	path, _ := writeDataset(t, "sarank-resume", false)
	dir := t.TempDir()
	common := []string{
		"-task", "lasso", "-data", path,
		"-lambda-frac", "0.1", "-mu", "4", "-s", "8", "-iters", "240", "-seed", "7",
		"-ckpt-dir", dir,
	}
	first, _ := clusterWith(t, 3, freeLoopbackAddr(t), common, nil)
	wantLine := lineWith(t, first, "final objective")

	second, _ := clusterWith(t, 3, freeLoopbackAddr(t), append(common, "-resume"), nil)
	if got := lineWith(t, second, "final objective"); got != wantLine {
		t.Fatalf("-resume run differs from original:\n resume: %s\n  first: %s", got, wantLine)
	}
}

// TestClusterResumeRefusesChangedFlag: -resume with a changed
// trajectory flag (-lambda-frac 0.2 over checkpoints written at 0.1)
// exits non-zero on every rank, naming the checkpoint the run does not
// match, instead of starting over and overwriting the checkpoints.
func TestClusterResumeRefusesChangedFlag(t *testing.T) {
	path, _ := writeDataset(t, "sarank-mismatch", false)
	dir := t.TempDir()
	common := []string{
		"-task", "lasso", "-data", path,
		"-mu", "4", "-s", "8", "-iters", "240", "-seed", "7", "-ckpt-dir", dir,
	}
	clusterWith(t, 2, freeLoopbackAddr(t), append(common, "-lambda-frac", "0.1"), nil)
	_, stderrs, codes := runCluster(2, freeLoopbackAddr(t), append(common, "-lambda-frac", "0.2", "-resume"), nil)
	for r, code := range codes {
		if code == 0 || !strings.Contains(stderrs[r], "is from another run") || !strings.Contains(stderrs[r], "fingerprint") {
			t.Fatalf("rank %d exited %d with stderr %q; want a non-zero exit naming the mismatched checkpoint", r, code, stderrs[r])
		}
	}
}

// TestHealthSurface exercises the -health endpoints against a live
// server: liveness always up, readiness flipping with the join state,
// the newest checkpoint as JSON, and the Prometheus counters.
func TestHealthSurface(t *testing.T) {
	hs, err := newHealthServer("127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer hs.shutdown()
	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get("http://" + hs.addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return resp.StatusCode, string(body)
	}

	if code, body := get("/healthz"); code != 200 || body != "ok\n" {
		t.Fatalf("/healthz = %d %q", code, body)
	}
	if code, _ := get("/readyz"); code != 503 {
		t.Fatalf("/readyz before join = %d, want 503", code)
	}
	if code, _ := get("/checkpoint"); code != 404 {
		t.Fatalf("/checkpoint before any save = %d, want 404", code)
	}

	hs.setReady(true)
	hs.setEpoch(3)
	hs.onSave(dist.CheckpointInfo{Rank: 2, Step: 48, Batches: 6, Path: "/tmp/rank-2-a.sack"})
	hs.noteRestart()

	if code, body := get("/readyz"); code != 200 || body != "ready\n" {
		t.Fatalf("/readyz after join = %d %q", code, body)
	}
	code, body := get("/checkpoint")
	if code != 200 {
		t.Fatalf("/checkpoint = %d", code)
	}
	for _, frag := range []string{`"rank":2`, `"step":48`, `"batches":6`, `"path":"/tmp/rank-2-a.sack"`} {
		if !strings.Contains(body, frag) {
			t.Fatalf("/checkpoint body missing %s:\n%s", frag, body)
		}
	}
	_, metricsBody := get("/metrics")
	for _, frag := range []string{
		`saco_rank_checkpoints_total{rank="2"} 1`,
		`saco_rank_restarts_total{rank="2"} 1`,
		`saco_rank_epoch{rank="2"} 3`,
		`saco_rank_checkpoint_step{rank="2"} 48`,
		`saco_rank_ready{rank="2"} 1`,
	} {
		if !strings.Contains(metricsBody, frag) {
			t.Fatalf("/metrics missing %q:\n%s", frag, metricsBody)
		}
	}

	hs.setReady(false)
	if code, _ := get("/readyz"); code != 503 {
		t.Fatalf("/readyz after teardown = %d, want 503", code)
	}
}

// TestSupervisionUsageErrors: the supervision flags demand a checkpoint
// directory — restarting without state would silently diverge.
func TestSupervisionUsageErrors(t *testing.T) {
	for _, extra := range [][]string{{"-resume"}, {"-max-restarts", "2"}} {
		args := append([]string{"-rank", "0", "-size", "2", "-addr", "x", "-data", "y"}, extra...)
		code, _, stderr := runCLI(t, args...)
		if code != 2 {
			t.Fatalf("%v: exit %d, want 2; stderr:\n%s", extra, code, stderr)
		}
		if !strings.Contains(stderr, "require -ckpt-dir") {
			t.Fatalf("%v: stderr missing requirement:\n%s", extra, stderr)
		}
	}
}
