// Package cardest implements cardinality estimation for conjunctive range
// queries: the traditional histogram + attribute-independence baseline, a
// uniform-sampling baseline, an MLP-based learned estimator trained on
// (query, true cardinality) pairs in the style of learned cost estimators
// (Sun & Li, PVLDB'19), and a QuickSel-style mixture-of-uniform-boxes
// model fit by least squares. Experiment E6 compares their q-errors on
// correlated data, where the independence assumption collapses.
package cardest

import (
	"errors"
	"math"

	"aidb/internal/catalog"
	"aidb/internal/ml"
	"aidb/internal/workload"
)

// Estimator predicts the number of rows matching a query.
type Estimator interface {
	// Estimate returns the predicted cardinality for q.
	Estimate(q workload.Query) float64
	// Name identifies the estimator in experiment output.
	Name() string
}

// HistogramEstimator is the traditional baseline: per-column equi-width
// histograms combined under the independence assumption.
type HistogramEstimator struct {
	rows  int
	hists []*catalog.Histogram
}

// NewHistogramEstimator builds per-column histograms over t.
func NewHistogramEstimator(t *workload.Table, buckets int) *HistogramEstimator {
	e := &HistogramEstimator{rows: t.NumRows()}
	for _, col := range t.Cols {
		e.hists = append(e.hists, catalog.NewHistogram(col, buckets))
	}
	return e
}

// Name implements Estimator.
func (e *HistogramEstimator) Name() string { return "histogram-independence" }

// Estimate implements Estimator.
func (e *HistogramEstimator) Estimate(q workload.Query) float64 {
	sel := 1.0
	for _, p := range q.Preds {
		sel *= e.hists[p.Column].Selectivity(p.Lo, p.Hi)
	}
	return sel * float64(e.rows)
}

// SamplingEstimator evaluates queries on a uniform row sample.
type SamplingEstimator struct {
	sample *workload.Table
	scale  float64
}

// NewSamplingEstimator draws a sample of the given size from t.
func NewSamplingEstimator(rng *ml.RNG, t *workload.Table, size int) *SamplingEstimator {
	n := t.NumRows()
	if size > n {
		size = n
	}
	idx := rng.Perm(n)[:size]
	s := &workload.Table{Spec: t.Spec, Cols: make([][]int64, len(t.Cols))}
	for c := range t.Cols {
		s.Cols[c] = make([]int64, size)
		for i, r := range idx {
			s.Cols[c][i] = t.Cols[c][r]
		}
	}
	return &SamplingEstimator{sample: s, scale: float64(n) / float64(size)}
}

// Name implements Estimator.
func (e *SamplingEstimator) Name() string { return "sampling" }

// Estimate implements Estimator.
func (e *SamplingEstimator) Estimate(q workload.Query) float64 {
	return float64(workload.TrueCardinality(e.sample, q)) * e.scale
}

// MLPEstimator is the learned estimator: a small MLP over a fixed-width
// featurization of the predicate ranges, trained to predict
// log(1 + cardinality) from executed queries.
type MLPEstimator struct {
	net     *ml.MLP
	numCols int
	ndv     []float64
	rows    float64
}

// NewMLPEstimator creates an untrained estimator for a table spec.
func NewMLPEstimator(rng *ml.RNG, spec workload.TableSpec, hidden int) *MLPEstimator {
	nc := len(spec.Columns)
	e := &MLPEstimator{
		numCols: nc,
		ndv:     make([]float64, nc),
		rows:    float64(spec.Rows),
	}
	for i, c := range spec.Columns {
		e.ndv[i] = float64(c.NDV)
	}
	// Features per column: lo, hi, width (all normalized) => 3*nc inputs.
	e.net = ml.NewMLP(rng, ml.ReLU, 3*nc, hidden, hidden, 1)
	e.net.LearningRate = 0.01
	return e
}

// Featurize encodes a query: per column normalized (lo, hi, width), with
// unused columns encoded as the full range.
func (e *MLPEstimator) Featurize(q workload.Query) []float64 {
	return e.FeaturizeInto(make([]float64, 3*e.numCols), q)
}

// FeaturizeInto is Featurize writing into a caller-owned scratch slice
// (which must have length 3*numCols), so estimation loops stop
// allocating one feature vector per query.
func (e *MLPEstimator) FeaturizeInto(f []float64, q workload.Query) []float64 {
	for c := 0; c < e.numCols; c++ {
		f[3*c] = 0
		f[3*c+1] = 1
		f[3*c+2] = 1
	}
	for _, p := range q.Preds {
		ndv := e.ndv[p.Column]
		lo := float64(p.Lo) / ndv
		hi := float64(p.Hi+1) / ndv
		f[3*p.Column] = lo
		f[3*p.Column+1] = hi
		f[3*p.Column+2] = hi - lo
	}
	return f
}

// FeatureWidth returns the length of the feature vector FeaturizeInto
// expects.
func (e *MLPEstimator) FeatureWidth() int { return 3 * e.numCols }

// Train fits the network on queries with known true cardinalities.
func (e *MLPEstimator) Train(rng *ml.RNG, queries []workload.Query, truths []int, epochs int) error {
	if len(queries) != len(truths) {
		return errors.New("cardest: query/truth length mismatch")
	}
	if len(queries) == 0 {
		return errors.New("cardest: no training queries")
	}
	x := ml.NewMatrix(len(queries), 3*e.numCols)
	y := make([]float64, len(queries))
	for i, q := range queries {
		e.FeaturizeInto(x.Row(i), q)
		y[i] = math.Log1p(float64(truths[i]))
	}
	e.net.Epochs = epochs
	_, err := e.net.TrainScalar(rng, x, y)
	return err
}

// Name implements Estimator.
func (e *MLPEstimator) Name() string { return "learned-mlp" }

// Estimate implements Estimator.
func (e *MLPEstimator) Estimate(q workload.Query) float64 {
	logCard := e.net.Predict1(e.Featurize(q))
	return e.clamp(logCard)
}

// clamp maps a predicted log(1+card) to a cardinality in [0, rows].
func (e *MLPEstimator) clamp(logCard float64) float64 {
	card := math.Expm1(logCard)
	if card < 0 {
		card = 0
	}
	if card > e.rows {
		card = e.rows
	}
	return card
}

// EstimateBatch returns the predicted cardinality of every query with a
// single featurize+forward pass over the whole batch — one matrix
// multiply per plan instead of one small forward per operator. Outputs
// are bitwise identical to calling Estimate per query.
func (e *MLPEstimator) EstimateBatch(queries []workload.Query) []float64 {
	if len(queries) == 0 {
		return nil
	}
	x := ml.NewMatrix(len(queries), 3*e.numCols)
	for i, q := range queries {
		e.FeaturizeInto(x.Row(i), q)
	}
	var s ml.MLPScratch
	out := e.net.Predict1Batch(&s, x, nil)
	for i, logCard := range out {
		out[i] = e.clamp(logCard)
	}
	return out
}

// BatchEstimator is an Estimator that can amortize featurization and
// model forward passes over a whole query batch.
type BatchEstimator interface {
	Estimator
	// EstimateBatch returns one estimate per query, identical to
	// calling Estimate on each.
	EstimateBatch(queries []workload.Query) []float64
}

// Evaluate runs every estimator over the query set and returns q-error
// summaries keyed by estimator name. Estimators implementing
// BatchEstimator are driven through one batched call instead of a
// per-query loop.
func Evaluate(t *workload.Table, queries []workload.Query, ests ...Estimator) map[string]ml.QErrorStats {
	out := make(map[string]ml.QErrorStats, len(ests))
	truths := make([]float64, len(queries))
	for i, q := range queries {
		truths[i] = float64(workload.TrueCardinality(t, q))
	}
	for _, e := range ests {
		qs := make([]float64, len(queries))
		if be, ok := e.(BatchEstimator); ok {
			for i, est := range be.EstimateBatch(queries) {
				qs[i] = ml.QError(est, truths[i])
			}
		} else {
			for i, q := range queries {
				qs[i] = ml.QError(e.Estimate(q), truths[i])
			}
		}
		out[e.Name()] = ml.SummarizeQErrors(qs)
	}
	return out
}
