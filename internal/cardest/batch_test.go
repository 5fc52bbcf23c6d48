package cardest

import (
	"math"
	"testing"

	"aidb/internal/ml"
	"aidb/internal/workload"
)

func trainedEstimator(t *testing.T, seed uint64) (*MLPEstimator, []workload.Query) {
	t.Helper()
	rng := ml.NewRNG(seed)
	spec := indepSpec(5000)
	tab := workload.Generate(rng, spec)
	qs := genQueries(rng, spec, 120, 2)
	est := NewMLPEstimator(ml.NewRNG(seed+1), spec, 16)
	if err := est.Train(ml.NewRNG(seed+2), qs[:80], truthsFor(tab, qs[:80]), 30); err != nil {
		t.Fatal(err)
	}
	return est, qs
}

func TestEstimateBatchMatchesEstimate(t *testing.T) {
	est, qs := trainedEstimator(t, 91)
	batch := est.EstimateBatch(qs)
	for i, q := range qs {
		if math.Float64bits(batch[i]) != math.Float64bits(est.Estimate(q)) {
			t.Fatalf("query %d: batch %v, per-query %v", i, batch[i], est.Estimate(q))
		}
	}
	if est.EstimateBatch(nil) != nil {
		t.Fatal("EstimateBatch(nil) should be nil")
	}
}

func TestFeaturizeIntoMatchesFeaturize(t *testing.T) {
	est, qs := trainedEstimator(t, 92)
	scratch := make([]float64, est.FeatureWidth())
	for _, q := range qs[:20] {
		want := est.Featurize(q)
		got := est.FeaturizeInto(scratch, q)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("feature %d: %v vs %v", i, got[i], want[i])
			}
		}
	}
}

func TestFeedbackEstimatorBatchDelegates(t *testing.T) {
	est, qs := trainedEstimator(t, 96)
	fe := NewFeedbackEstimator(est)
	got := fe.EstimateBatch(qs[:10])
	for i, q := range qs[:10] {
		if math.Float64bits(got[i]) != math.Float64bits(est.Estimate(q)) {
			t.Fatalf("query %d: %v vs %v", i, got[i], est.Estimate(q))
		}
	}
}
