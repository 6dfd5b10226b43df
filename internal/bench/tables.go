package bench

import (
	"fmt"

	"saco/internal/costmodel"
	"saco/internal/datagen"
)

// Table1Row is one evaluated configuration of the Table I cost model.
type Table1Row struct {
	S                  int
	Flops, Memory      float64
	Latency, Bandwidth float64
	ModeledTime        float64
}

// Table1Result evaluates the closed-form costs of Table I.
type Table1Result struct {
	Problem costmodel.Problem
	Rows    []Table1Row
	// OptimalS is the model-predicted best unrolling factor.
	OptimalS int
}

// Table1 evaluates the Table I cost formulas for a news20-like
// configuration at the paper's scale (P = 768, µ = 8) across unrolling
// factors, demonstrating the F·s and W·s growth against the L/s decline.
func Table1(cfg Config) (*Table1Result, error) {
	cfg = cfg.withDefaults()
	pb := costmodel.Problem{
		M: 15935, N: 62061, Density: 0.0013, Mu: 8, H: 10000, S: 1, P: 768,
	}
	res := &Table1Result{Problem: pb, OptimalS: costmodel.OptimalS(pb, cfg.Machine, 2048)}
	for _, s := range []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512} {
		p := pb.WithS(s)
		res.Rows = append(res.Rows, Table1Row{
			S:           s,
			Flops:       p.Flops(),
			Memory:      p.MemoryWords(),
			Latency:     p.LatencyMessages(),
			Bandwidth:   p.BandwidthWords(),
			ModeledTime: p.Time(cfg.Machine),
		})
	}
	t := newTable("s", "F (flops)", "M (words)", "L (msgs)", "W (words)", "modeled time")
	for _, r := range res.Rows {
		t.add(fmt.Sprintf("%d", r.S), fmt.Sprintf("%.3e", r.Flops), fmt.Sprintf("%.3e", r.Memory),
			fmt.Sprintf("%.3e", r.Latency), fmt.Sprintf("%.3e", r.Bandwidth),
			fmt.Sprintf("%.3es", r.ModeledTime))
	}
	t.write(cfg.Out, fmt.Sprintf("Table I: accBCD vs SA-accBCD costs (news20-scale, P=%d, µ=%d; model-optimal s=%d on %s)",
		pb.P, pb.Mu, res.OptimalS, cfg.Machine.Name))
	return res, nil
}

// DatasetRow summarizes one replica (Tables II and IV).
type DatasetRow struct {
	Name           string
	Features       int
	DataPoints     int
	OrigFeatures   int
	OrigDataPoints int
	NNZPercent     float64
}

// DatasetsResult holds the replica summaries.
type DatasetsResult struct {
	Lasso []DatasetRow // Table II
	SVM   []DatasetRow // Table IV
}

// Tables2and4 generates each dataset replica at the configured scale and
// reports its shape against the original LIBSVM dataset.
func Tables2and4(cfg Config) (*DatasetsResult, error) {
	cfg = cfg.withDefaults()
	res := &DatasetsResult{}
	lasso := []string{"url", "news20", "covtype", "epsilon", "leu"}
	svm := []string{"w1a", "leu.binary", "duke", "news20.binary", "rcv1.binary", "gisette"}
	build := func(names []string) ([]DatasetRow, error) {
		var rows []DatasetRow
		for _, name := range names {
			d, err := datagen.Replica(name, cfg.Scale, cfg.Seed)
			if err != nil {
				return nil, err
			}
			m, n := d.Dims()
			_, _, origM, origN, _, err := datagen.ReplicaInfo(name)
			if err != nil {
				return nil, err
			}
			rows = append(rows, DatasetRow{
				Name: name, Features: n, DataPoints: m,
				OrigFeatures: origN, OrigDataPoints: origM,
				NNZPercent: 100 * d.Density(),
			})
		}
		return rows, nil
	}
	var err error
	if res.Lasso, err = build(lasso); err != nil {
		return nil, err
	}
	if res.SVM, err = build(svm); err != nil {
		return nil, err
	}
	emit := func(rows []DatasetRow, title string) {
		t := newTable("name", "features", "data points", "NNZ%", "original (features x points)")
		for _, r := range rows {
			t.add(r.Name, fmt.Sprintf("%d", r.Features), fmt.Sprintf("%d", r.DataPoints),
				fmt.Sprintf("%.4g", r.NNZPercent),
				fmt.Sprintf("%d x %d", r.OrigFeatures, r.OrigDataPoints))
		}
		t.write(cfg.Out, title)
	}
	emit(res.Lasso, "Table II: Lasso dataset replicas")
	emit(res.SVM, "Table IV: SVM dataset replicas")
	return res, nil
}
