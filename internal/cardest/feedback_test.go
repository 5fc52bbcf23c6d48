package cardest

import (
	"testing"

	"aidb/internal/ml"
	"aidb/internal/workload"
)

// TestFeedbackEstimatorRetrainImproves trains a model on one
// distribution, drifts the data, and checks retraining on recorded
// (query, actual) pairs beats the frozen copy — the core loop E27
// exercises end to end through the engine.
func TestFeedbackEstimatorRetrainImproves(t *testing.T) {
	spec := workload.TableSpec{
		Name: "t",
		Rows: 3000,
		Columns: []workload.Column{
			{Name: "a", NDV: 80, CorrelatedWith: -1},
			{Name: "b", NDV: 80, CorrelatedWith: 0, CorrNoise: 35},
		},
	}
	specNew := spec
	specNew.Columns = append([]workload.Column(nil), spec.Columns...)
	specNew.Columns[1].CorrNoise = 2
	tabOld := workload.Generate(ml.NewRNG(1), spec)
	tabNew := workload.Generate(ml.NewRNG(2), specNew)

	gen := workload.NewQueryGen(ml.NewRNG(3), spec)
	gen.MinPreds, gen.MaxPreds = 2, 2
	train := make([]workload.Query, 300)
	truths := make([]int, 300)
	for i := range train {
		train[i] = gen.Next()
		truths[i] = workload.TrueCardinality(tabOld, train[i])
	}
	newModel := func() *MLPEstimator {
		m := NewMLPEstimator(ml.NewRNG(4), spec, 32)
		if err := m.Train(ml.NewRNG(5), train, truths, 60); err != nil {
			t.Fatal(err)
		}
		return m
	}
	frozen := newModel()
	fb := NewFeedbackEstimator(newModel())
	if fb.Name() != "learned-mlp+feedback" {
		t.Errorf("name = %q", fb.Name())
	}

	for i := 0; i < 120; i++ {
		q := gen.Next()
		fb.Record(q, workload.TrueCardinality(tabNew, q))
	}
	if fb.Pending() != 120 {
		t.Fatalf("pending = %d, want 120", fb.Pending())
	}
	if err := fb.Retrain(ml.NewRNG(6), 60); err != nil {
		t.Fatal(err)
	}
	if fb.Pending() != 0 {
		t.Errorf("pending after retrain = %d, want 0", fb.Pending())
	}

	medianQ := func(est Estimator) float64 {
		qs := make([]float64, 100)
		for i := range qs {
			q := gen.Next()
			qs[i] = ml.QError(est.Estimate(q), float64(workload.TrueCardinality(tabNew, q)))
		}
		return ml.SummarizeQErrors(qs).Median
	}
	fz, corr := medianQ(frozen), medianQ(fb)
	if corr >= fz {
		t.Errorf("feedback median q-error %v not better than frozen %v", corr, fz)
	}

	// Retrain with nothing buffered is a no-op, not an error.
	if err := fb.Retrain(ml.NewRNG(7), 10); err != nil {
		t.Errorf("empty retrain: %v", err)
	}
}
