package saco_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"saco"
)

func TestPublicAPILassoPath(t *testing.T) {
	data := saco.Regression("path", 11, 200, 80, 0.15, 6, 0.05)
	cols := data.Cols()
	lmax := saco.LambdaMax(cols, data.B)
	path, err := saco.LassoPath(cols, data.B, []float64{0.5 * lmax, 0.05 * lmax}, saco.LassoOptions{
		Iters: 300, BlockSize: 4, Accelerated: true, Seed: 1, S: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 2 || path[1].NNZ < path[0].NNZ {
		t.Fatalf("path shape wrong: %+v", path)
	}
}

func TestPublicAPIMulticoreBackend(t *testing.T) {
	data := saco.Regression("mc", 31, 300, 120, 0.15, 8, 0.05)
	lambda := 0.1 * saco.LambdaMax(data.Cols(), data.B)
	opt := saco.LassoOptions{Lambda: lambda, BlockSize: 8, Iters: 400, S: 32, Accelerated: true, Seed: 2}
	seq, err := saco.Lasso(data.Cols(), data.B, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Exec = saco.Multicore(0) // all cores
	par, err := saco.Lasso(data.Cols(), data.B, opt)
	if err != nil {
		t.Fatal(err)
	}
	if par.Objective != seq.Objective {
		t.Fatalf("multicore objective %v != sequential %v", par.Objective, seq.Objective)
	}
	for i := range par.X {
		if par.X[i] != seq.X[i] {
			t.Fatalf("multicore X[%d] differs", i)
		}
	}
}

func TestPublicAPIPredictAccuracy(t *testing.T) {
	data := saco.Classification("pa", 13, 250, 60, 0.25, 0.02)
	res, err := saco.SVM(data.Rows(), data.B, saco.SVMOptions{Lambda: 1, Iters: 8000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	margins := saco.Predict(data.Rows(), res.X)
	if len(margins) != 250 {
		t.Fatalf("Predict length %d", len(margins))
	}
	acc := saco.Accuracy(data.Rows(), data.B, res.X)
	if acc < 0.85 {
		t.Fatalf("accuracy %v too low", acc)
	}
	if saco.Accuracy(data.Rows(), nil, res.X) != 0 {
		t.Fatal("empty-label accuracy should be 0")
	}
}

// TestPublicAPIServe walks the serving facade end to end: train → model
// → registry → HTTP scoring → live lock-free refit → hot-swapped
// version, all through the public saco surface.
func TestPublicAPIServe(t *testing.T) {
	data := saco.Regression("serve-api", 31, 150, 30, 0.3, 5, 0.05)
	a := data.AsCSR()
	lambda := 0.1 * saco.LambdaMax(data.Cols(), data.B)
	res, err := saco.Lasso(data.Cols(), data.B, saco.LassoOptions{Lambda: lambda, Iters: 2000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	m := saco.NewModel(saco.KindLasso, res.X)
	m.Lambda = lambda
	m.TrainRows = a.M
	reg, err := saco.OpenModelRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Publish(m); err != nil {
		t.Fatal(err)
	}

	srv := saco.NewServer(reg, saco.ServeOptions{})
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		srv.Close()
	}()

	resp, err := http.Post(ts.URL+"/predict", "text/plain", strings.NewReader("1:1 2:1\n"))
	if err != nil {
		t.Fatal(err)
	}
	var pr struct {
		ModelVersion uint64    `json:"model_version"`
		Scores       []float64 `json:"scores"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if pr.ModelVersion != 1 || len(pr.Scores) != 1 {
		t.Fatalf("predict reply %+v", pr)
	}
	if want := res.X[0] + res.X[1]; pr.Scores[0] != want {
		t.Fatalf("score %v, want %v", pr.Scores[0], want)
	}

	// Live refit publishes a new version against the same registry.
	if err := saco.Refit(context.Background(), reg, a, data.B, saco.RefitOptions{
		Every: 20 * time.Millisecond, MaxPublishes: 1, Seed: 9,
	}); err != nil {
		t.Fatal(err)
	}
	if reg.Version() != 2 {
		t.Fatalf("registry at %d after refit, want 2", reg.Version())
	}

	// The round trip through disk preserves the published model.
	loaded, err := saco.LoadModel(dir + "/model-00000002.sacm")
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Kind != saco.KindLasso || loaded.Version != 2 {
		t.Fatalf("loaded %+v", loaded)
	}
}
