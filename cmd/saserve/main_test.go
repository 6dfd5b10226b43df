package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"saco"
)

// syncBuffer is a mutex-guarded buffer: run writes progress lines from
// several goroutines while the test polls it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func TestBadFlags(t *testing.T) {
	ctx := context.Background()
	var out, errb bytes.Buffer
	if code := run(ctx, []string{"-bogus"}, &out, &errb); code != 2 {
		t.Fatalf("unknown flag: exit %d, want 2", code)
	}
	errb.Reset()
	if code := run(ctx, nil, &out, &errb); code != 2 || !strings.Contains(errb.String(), "-models is required") {
		t.Fatalf("missing -models: %q", errb.String())
	}
	// pegasos is a task value whose trainer was removed.
	for _, task := range []string{"ridge", "pegasos"} {
		errb.Reset()
		if code := run(ctx, []string{"-models", t.TempDir(), "-refit-task", task}, &out, &errb); code != 2 ||
			!strings.Contains(errb.String(), `unknown -refit-task "`+task+`" (lasso, svm)`) {
			t.Fatalf("refit task %s: %q", task, errb.String())
		}
	}
	errb.Reset()
	if code := run(ctx, []string{"-models", t.TempDir(), "-refit-workers", "2"}, &out, &errb); code != 2 {
		t.Fatalf("-refit-workers: exit %d, want 2 (the refit is sequential)", code)
	}
	errb.Reset()
	if code := run(ctx, []string{"-models", t.TempDir(), "-workers", "2"}, &out, &errb); code != 2 {
		t.Fatalf("-workers: exit %d, want 2 (scoring is one sequential pass)", code)
	}
	// Two trainers on one registry would interleave their versions.
	errb.Reset()
	if code := run(ctx, []string{"-models", t.TempDir(), "-refit", "x.svm", "-learn"}, &out, &errb); code != 2 ||
		!strings.Contains(errb.String(), "-refit and -learn") {
		t.Fatalf("-refit with -learn: exit %d, stderr %q", code, errb.String())
	}
	errb.Reset()
	if code := run(ctx, []string{"-h"}, &out, &errb); code != 0 {
		t.Fatalf("-h: exit %d, want 0", code)
	}
}

// writeModelVersion publishes a model file directly into the directory,
// the way an external trainer (sasolve, another saserve) would.
func writeModelVersion(t *testing.T, dir string, version uint64, kind saco.ModelKind, x []float64) {
	t.Helper()
	m := saco.NewModel(kind, x)
	m.Version = version
	m.Lambda = 0.1
	m.TrainRows = len(x)
	if err := saco.SaveModel(filepath.Join(dir, fmt.Sprintf("model-%08d.sacm", version)), m); err != nil {
		t.Fatal(err)
	}
}

// startServer runs the CLI against an ephemeral port and returns its
// base URL plus a shutdown func that asserts a clean exit.
func startServer(t *testing.T, args ...string) (string, *syncBuffer, func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	out := &syncBuffer{}
	var errb syncBuffer
	done := make(chan int, 1)
	go func() { done <- run(ctx, append([]string{"-addr", "127.0.0.1:0"}, args...), out, &errb) }()

	addrRe := regexp.MustCompile(`listening on (\S+)`)
	deadline := time.Now().Add(10 * time.Second)
	var url string
	for url == "" {
		if m := addrRe.FindStringSubmatch(out.String()); m != nil {
			url = "http://" + m[1]
			break
		}
		select {
		case code := <-done:
			t.Fatalf("server exited early (%d): %s / %s", code, out.String(), errb.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never listened: %s / %s", out.String(), errb.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
	return url, out, func() {
		cancel()
		select {
		case code := <-done:
			if code != 0 {
				t.Fatalf("exit %d: %s / %s", code, out.String(), errb.String())
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("server never exited: %s", out.String())
		}
	}
}

// statsVersion polls /stats until the serving version reaches want.
func statsVersion(t *testing.T, url string, want uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	var last uint64
	for time.Now().Before(deadline) {
		resp, err := http.Get(url + "/stats")
		if err == nil {
			var st struct {
				ModelVersion uint64 `json:"model_version"`
			}
			err = json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			if err == nil {
				last = st.ModelVersion
				if last >= want {
					return
				}
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("stats never reached version %d (last %d)", want, last)
}

// TestServeHotSwapCycle is the CLI half of the serving story: load a
// model trained by sasolve's binary writer, score against it, drop a
// second version into the directory, and watch the server hot-swap.
func TestServeHotSwapCycle(t *testing.T) {
	dir := t.TempDir()
	writeModelVersion(t, dir, 1, saco.KindSVM, []float64{1, 2, 3, 4})
	url, _, shutdown := startServer(t, "-models", dir, "-watch", "20ms")
	defer shutdown()

	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}

	score := func() (float64, uint64) {
		resp, err := http.Post(url+"/predict", "text/plain", strings.NewReader("2:1 4:0.5\n"))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("predict: %d %s", resp.StatusCode, data)
		}
		var pr struct {
			ModelVersion uint64    `json:"model_version"`
			Scores       []float64 `json:"scores"`
			Labels       []int     `json:"labels"`
		}
		if err := json.Unmarshal(data, &pr); err != nil {
			t.Fatal(err)
		}
		if len(pr.Scores) != 1 || len(pr.Labels) != 1 {
			t.Fatalf("malformed reply %s", data)
		}
		return pr.Scores[0], pr.ModelVersion
	}

	s, v := score()
	if v != 1 || s != 2*1+4*0.5 {
		t.Fatalf("v1 score = %v @ version %d", s, v)
	}

	writeModelVersion(t, dir, 2, saco.KindSVM, []float64{-1, -2, -3, -4})
	statsVersion(t, url, 2)
	s, v = score()
	if v != 2 || s != -(2*1+4*0.5) {
		t.Fatalf("v2 score = %v @ version %d", s, v)
	}
	_, scrape := httpGetBody(t, url+"/metrics")
	if got := parseCounter(t, scrape, "saco_requests_total"); got != 2 {
		t.Fatalf("saco_requests_total = %d after two predicts:\n%s", got, scrape)
	}
}

// TestServeRefitCycle: saserve -refit publishes new versions into the
// registry while serving; the version advances and the server reports
// the refit's completion.
func TestServeRefitCycle(t *testing.T) {
	dir := t.TempDir()
	writeModelVersion(t, dir, 1, saco.KindLasso, make([]float64, 4))

	svm := filepath.Join(t.TempDir(), "refit.svm")
	data := `1 1:1 3:0.5
-1 2:-1 4:2
1 1:0.3 4:-1
-1 3:1.5
1 2:0.7 3:-0.2
-1 1:-0.4 4:0.9
`
	if err := os.WriteFile(svm, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}

	url, out, shutdown := startServer(t,
		"-models", dir, "-watch", "20ms",
		"-refit", svm, "-refit-every", "30ms", "-refit-publishes", "2")
	defer shutdown()

	statsVersion(t, url, 3) // initial + 2 refit publishes
	deadline := time.Now().Add(10 * time.Second)
	for !strings.Contains(out.String(), "refit finished") {
		if time.Now().After(deadline) {
			t.Fatalf("refit never finished: %s", out.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !strings.Contains(out.String(), "refit: published version") {
		t.Fatalf("no publish log lines: %s", out.String())
	}

	// The published artifact is loadable and typed.
	m, err := saco.LoadModel(filepath.Join(dir, "model-00000003.sacm"))
	if err != nil {
		t.Fatal(err)
	}
	if m.Kind != saco.KindLasso || m.Version != 3 || m.TrainRows != 6 {
		t.Fatalf("refit artifact: %+v", m)
	}
}

// TestServeRefitFailureIsFatal: an impossible refit (untyped model, no
// -refit-task) must take the process down with an error, not silently
// serve stale models.
func TestServeRefitFailureIsFatal(t *testing.T) {
	dir := t.TempDir()
	writeModelVersion(t, dir, 1, saco.KindRaw, []float64{1, 2, 3, 4})
	svm := filepath.Join(t.TempDir(), "refit.svm")
	if err := os.WriteFile(svm, []byte("1 1:1\n-1 2:1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb syncBuffer
	code := run(context.Background(), []string{
		"-addr", "127.0.0.1:0", "-models", dir, "-refit", svm, "-refit-every", "10ms",
	}, &out, &errb)
	if code != 1 || !strings.Contains(errb.String(), "refit") {
		t.Fatalf("exit %d, stderr %q", code, errb.String())
	}
}
