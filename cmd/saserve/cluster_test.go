package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"saco"
)

// reservePort grabs an ephemeral loopback port and releases it so a
// replica can bind it as its advertised ring address. (The tiny window
// between close and rebind is the standard test tradeoff for needing
// the address before the process starts.)
func reservePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	if err := ln.Close(); err != nil {
		t.Fatal(err)
	}
	return addr
}

// predictModel posts one LIBSVM row for a named model and returns
// (status, score, version).
func predictModel(t *testing.T, url, model, row string) (int, float64, uint64) {
	t.Helper()
	target := url + "/predict"
	if model != "" {
		target += "?model=" + model
	}
	resp, err := http.Post(target, "text/plain", strings.NewReader(row))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var pr struct {
		ModelVersion uint64    `json:"model_version"`
		Scores       []float64 `json:"scores"`
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, 0, 0
	}
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	if len(pr.Scores) != 1 {
		t.Fatalf("want one score, got %v", pr.Scores)
	}
	return resp.StatusCode, pr.Scores[0], pr.ModelVersion
}

// parseCounter reads one unlabeled counter sample out of a /metrics
// scrape (0 when the series is absent).
func parseCounter(t *testing.T, scrape, name string) uint64 {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` (\d+)$`)
	m := re.FindStringSubmatch(scrape)
	if m == nil {
		return 0
	}
	v, err := strconv.ParseUint(m[1], 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestClusterFlagValidation: cluster mode insists on -self and rejects
// the single-model -refit file replay.
func TestClusterFlagValidation(t *testing.T) {
	ctx := context.Background()
	var out, errb syncBuffer
	if code := run(ctx, []string{"-models", t.TempDir(), "-cluster"}, &out, &errb); code != 2 ||
		!strings.Contains(errb.String(), "-self is required") {
		t.Fatalf("missing -self: exit %d, stderr %q", code, errb.String())
	}
	errb = syncBuffer{}
	if code := run(ctx, []string{
		"-models", t.TempDir(), "-cluster", "-self", "127.0.0.1:1", "-refit", "x.svm",
	}, &out, &errb); code != 2 || !strings.Contains(errb.String(), "-refit") {
		t.Fatalf("cluster+refit: exit %d, stderr %q", code, errb.String())
	}
}

// TestServeClusterMode boots two saserve replicas over one fleet
// directory and checks the sharded-serving contract end to end: every
// model answers with its own coefficients through EITHER replica (the
// non-owner forwards), and the forward counters reconcile with the
// routing the ring dictates.
func TestServeClusterMode(t *testing.T) {
	root := t.TempDir()
	models := []string{"alpha", "beta", "gamma", "delta"}
	for i, name := range models {
		dir := filepath.Join(root, name)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		// Distinct coefficient at index 1 so a misrouted predict is
		// caught by the score, not just the status.
		writeModelVersion(t, dir, 1, saco.KindSVM, []float64{1, float64(i + 1), 3, 4})
	}

	a1, a2 := reservePort(t), reservePort(t)
	peerList := a1 + "," + a2
	common := []string{"-models", root, "-cluster", "-peers", peerList, "-watch", "20ms"}
	url1, out1, stop1 := startServer(t, append(common, "-self", a1, "-addr", a1)...)
	defer stop1()
	url2, _, stop2 := startServer(t, append(common, "-self", a2, "-addr", a2)...)
	defer stop2()
	if !strings.Contains(out1.String(), "cluster: "+a1) {
		t.Fatalf("no cluster banner: %s", out1.String())
	}

	// Wait until the two replicas jointly own the whole fleet at v1.
	clusterOwned := func(url string) map[string]uint64 {
		resp, err := http.Get(url + "/cluster")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st struct {
			Owned map[string]uint64 `json:"owned"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st.Owned
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		owned := clusterOwned(url1)
		for name, v := range clusterOwned(url2) {
			owned[name] = v
		}
		ready := len(owned) == len(models)
		for _, v := range owned {
			ready = ready && v == 1
		}
		if ready {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet never fully owned: %v", owned)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Every model scores with its own coefficients through both
	// replicas; the row picks out coefficient 1 (x[1]·1 + x[3]·0.5).
	for i, name := range models {
		want := float64(i+1) + 4*0.5
		for _, u := range []string{url1, url2} {
			status, score, version := predictModel(t, u, name, "2:1 4:0.5\n")
			if status != http.StatusOK || version != 1 || score != want {
				t.Fatalf("model %s via %s: status %d score %v version %d (want %v @ 1)",
					name, u, status, score, version, want)
			}
		}
	}

	// Each name was posted to both replicas and the ring is stable, so
	// exactly one side of each pair forwarded: 4 forwards, no errors.
	scrape := func(url string) string {
		_, body := httpGetBody(t, url+"/metrics")
		return body
	}
	s1, s2 := scrape(url1), scrape(url2)
	fwd := parseCounter(t, s1, "saco_forwards_total") + parseCounter(t, s2, "saco_forwards_total")
	if fwd != uint64(len(models)) {
		t.Fatalf("forwards = %d, want %d\nreplica1:\n%s\nreplica2:\n%s", fwd, len(models), s1, s2)
	}
	if e := parseCounter(t, s1, "saco_forward_errors_total") + parseCounter(t, s2, "saco_forward_errors_total"); e != 0 {
		t.Fatalf("forward errors = %d", e)
	}

	// Unknown model name: 404 everywhere, never a hang.
	if status, _, _ := predictModel(t, url1, "nosuch", "1:1\n"); status != http.StatusNotFound {
		t.Fatalf("unknown model answered %d", status)
	}
	// Cluster predicts require a model name.
	if status, _, _ := predictModel(t, url1, "", "1:1\n"); status != http.StatusBadRequest {
		t.Fatalf("nameless cluster predict answered %d", status)
	}
}

// httpGetBody fetches a URL and returns (status, body).
func httpGetBody(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(data)
}

// TestServeLearnCycle: saserve -learn with an empty registry accepts
// labeled rows over POST /learn, spins up a refit stream, publishes a
// model, and then serves predictions against it.
func TestServeLearnCycle(t *testing.T) {
	dir := t.TempDir()
	url, out, shutdown := startServer(t,
		"-models", dir, "-watch", "20ms",
		"-learn", "-learn-cap", "1024",
		"-refit-task", "lasso", "-refit-every", "30ms", "-refit-lambda", "0.01")
	defer shutdown()

	// y = 2·x1 on a 3-feature design.
	var body strings.Builder
	for i := 0; i < 64; i++ {
		x := float64(i%7) - 3
		fmt.Fprintf(&body, "%g 1:%g 3:%g\n", 2*x, x, 0.01*float64(i%3))
	}
	resp, err := http.Post(url+"/learn", "text/plain", strings.NewReader(body.String()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("learn answered %d", resp.StatusCode)
	}

	statsVersion(t, url, 1) // the refit stream published
	if !strings.Contains(out.String(), "learn: refit stream started") {
		t.Fatalf("no refit stream log: %s", out.String())
	}

	status, score, _ := predictModel(t, url, "", "1:1\n")
	if status != http.StatusOK {
		t.Fatalf("predict after learn answered %d", status)
	}
	if score < 1.0 || score > 3.0 {
		t.Fatalf("learned weight scored %v for a y=2x signal", score)
	}
	_, scrape := httpGetBody(t, url+"/metrics")
	if got := parseCounter(t, scrape, "saco_learn_rows_total"); got != 64 {
		t.Fatalf("saco_learn_rows_total = %d, want 64", got)
	}
	if parseCounter(t, scrape, "saco_refit_publishes_total") == 0 {
		t.Fatal("refit publish counter never moved")
	}
}
