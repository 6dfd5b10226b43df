package bench

import (
	"bytes"
	"strings"
	"testing"
)

// quickCfg keeps every experiment at smoke-test scale; -short (the CI
// test job) shrinks the replicas and iteration budgets further so the
// whole harness finishes in seconds, while full paper-scale runs stay
// reachable through cmd/saexp.
func quickCfg(buf *bytes.Buffer) Config {
	cfg := Config{Scale: 0.03, IterScale: 0.02, Out: buf, Seed: 7}
	if testing.Short() {
		cfg.Scale = 0.02
		cfg.IterScale = 0.01
	}
	return cfg
}

func TestFig2Quick(t *testing.T) {
	var buf bytes.Buffer
	res, err := Fig2(quickCfg(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Datasets) != 3 {
		t.Fatalf("datasets = %d", len(res.Datasets))
	}
	for _, d := range res.Datasets {
		if len(d.Series) != 8 {
			t.Fatalf("%s: %d series, want 8", d.Name, len(d.Series))
		}
		for m, rel := range d.RelErr {
			if rel > 1e-8 {
				t.Fatalf("%s/%s: SA relative error %v too large", d.Name, m, rel)
			}
		}
	}
	if !strings.Contains(buf.String(), "Table III") {
		t.Fatal("missing Table III output")
	}
}

func TestFig3Quick(t *testing.T) {
	var buf bytes.Buffer
	cfg := quickCfg(&buf)
	res, err := Fig3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Panels) != 4 {
		t.Fatalf("panels = %d", len(res.Panels))
	}
	for _, p := range res.Panels {
		if len(p.Series) != 12 {
			t.Fatalf("%s: %d series, want 12", p.Name, len(p.Series))
		}
		for m, sp := range p.Speedup {
			if sp <= 0 {
				t.Fatalf("%s/%s: non-positive speedup", p.Name, m)
			}
		}
	}
}

func TestFig4Quick(t *testing.T) {
	var buf bytes.Buffer
	res, err := Fig4(quickCfg(&buf))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Panels {
		if len(p.Scaling) == 0 || len(p.Speedups) == 0 {
			t.Fatalf("%s: empty panel", p.Name)
		}
		// SA must win at every P on the latency-bound tiny workload.
		for _, sp := range p.Scaling {
			if sp.SASeconds >= sp.ClassicSeconds {
				t.Fatalf("%s P=%d: SA %v not faster than classic %v", p.Name, sp.P, sp.SASeconds, sp.ClassicSeconds)
			}
		}
		// Communication speedup must be greater than 1 somewhere.
		anyComm := false
		for _, sp := range p.Speedups {
			if sp.Comm > 1 {
				anyComm = true
			}
		}
		if !anyComm {
			t.Fatalf("%s: no communication speedup observed", p.Name)
		}
	}
}

func TestFig5Quick(t *testing.T) {
	var buf bytes.Buffer
	res, err := Fig5(quickCfg(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Panels) != 3 {
		t.Fatalf("panels = %d", len(res.Panels))
	}
	for _, p := range res.Panels {
		if len(p.Series) != 4 {
			t.Fatalf("%s: %d series, want 4", p.Name, len(p.Series))
		}
		for loss, dev := range p.MaxDeviation {
			// The gap trajectories must agree to fine precision relative
			// to the gap magnitude (starts at O(m)).
			if dev > 1e-6*float64(1+len(p.Series[0].Values))*1e3 {
				t.Fatalf("%s/%s: SA deviation %v", p.Name, loss, dev)
			}
		}
	}
}

func TestTable5Quick(t *testing.T) {
	var buf bytes.Buffer
	res, err := Table5(quickCfg(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r.Speedup <= 0 {
			t.Fatalf("%s: speedup %v", r.Dataset, r.Speedup)
		}
		if r.SBest < 2 {
			t.Fatalf("%s: degenerate best s", r.Dataset)
		}
	}
}

func TestTable1(t *testing.T) {
	var buf bytes.Buffer
	cfg := quickCfg(&buf)
	res, err := Table1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) < 5 {
		t.Fatal("too few rows")
	}
	// Latency monotonically falls with s, bandwidth rises.
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].Latency > res.Rows[i-1].Latency {
			t.Fatal("latency not decreasing in s")
		}
		if res.Rows[i].Bandwidth < res.Rows[i-1].Bandwidth {
			t.Fatal("bandwidth not increasing in s")
		}
	}
	if res.OptimalS < 2 {
		t.Fatalf("model-optimal s = %d; expected > 1 on the Cray model", res.OptimalS)
	}
}

func TestTables2and4(t *testing.T) {
	var buf bytes.Buffer
	res, err := Tables2and4(quickCfg(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Lasso) != 5 || len(res.SVM) != 6 {
		t.Fatalf("row counts %d/%d", len(res.Lasso), len(res.SVM))
	}
	out := buf.String()
	if !strings.Contains(out, "Table II") || !strings.Contains(out, "Table IV") {
		t.Fatal("missing table titles")
	}
}

func TestAblationsQuick(t *testing.T) {
	var buf bytes.Buffer
	res, err := Ablations(quickCfg(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Machines) != 3 {
		t.Fatalf("rows %d", len(res.Machines))
	}
	// Speedup should grow with machine latency: Cray < Ethernet < Spark.
	if !(res.Machines[0].Speedup < res.Machines[1].Speedup && res.Machines[1].Speedup < res.Machines[2].Speedup) {
		t.Fatalf("speedups not ordered by latency: %v %v %v",
			res.Machines[0].Speedup, res.Machines[1].Speedup, res.Machines[2].Speedup)
	}
}
