package cardest

import (
	"sync"

	"aidb/internal/ml"
	"aidb/internal/workload"
)

// FeedbackEstimator wraps a learned estimator with a replay buffer of
// executed-query truths. Profiled executions feed Record; Retrain folds
// the accumulated feedback into the model (fine-tuning the MLP on the
// workload the system actually served), which is how a frozen estimator
// tracks drift without a full offline retraining pass.
type FeedbackEstimator struct {
	Base *MLPEstimator

	mu      sync.Mutex
	queries []workload.Query
	truths  []int
}

// NewFeedbackEstimator wraps base with an empty replay buffer.
func NewFeedbackEstimator(base *MLPEstimator) *FeedbackEstimator {
	return &FeedbackEstimator{Base: base}
}

// Record buffers one executed query with its measured cardinality.
func (e *FeedbackEstimator) Record(q workload.Query, actual int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.queries = append(e.queries, q)
	e.truths = append(e.truths, actual)
}

// Pending reports the number of buffered feedback pairs.
func (e *FeedbackEstimator) Pending() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.queries)
}

// Retrain fine-tunes the base model on the buffered feedback for the
// given number of epochs and clears the buffer. No-op when the buffer
// is empty.
func (e *FeedbackEstimator) Retrain(rng *ml.RNG, epochs int) error {
	e.mu.Lock()
	queries, truths := e.queries, e.truths
	e.queries, e.truths = nil, nil
	e.mu.Unlock()
	if len(queries) == 0 {
		return nil
	}
	return e.Base.Train(rng, queries, truths, epochs)
}

// Estimate implements Estimator.
func (e *FeedbackEstimator) Estimate(q workload.Query) float64 { return e.Base.Estimate(q) }

// EstimateBatch implements BatchEstimator by delegating to the base
// model's batched featurize+forward path.
func (e *FeedbackEstimator) EstimateBatch(queries []workload.Query) []float64 {
	return e.Base.EstimateBatch(queries)
}

// Name implements Estimator.
func (e *FeedbackEstimator) Name() string { return "learned-mlp+feedback" }
