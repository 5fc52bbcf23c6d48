package cardest

import (
	"sync"

	"aidb/internal/ml"
	"aidb/internal/workload"
)

// ObservedCardinality is one per-operator (estimated, actual)
// cardinality pair harvested from a profiled execution — the unit of
// the estimation-error feedback channel that closes the paper's §2.1
// observe→adapt loop for learned estimators.
type ObservedCardinality struct {
	// Op is the operator's one-line description (plan Describe text).
	Op string
	// Est is the optimizer's estimate; Actual the measured output rows.
	Est, Actual float64
}

// QError is the pair's q-error (max of over/under-estimation factor).
func (o ObservedCardinality) QError() float64 { return ml.QError(o.Est, o.Actual) }

// FeedbackLog is a bounded ring of observed cardinalities. Producers
// (the engine's EXPLAIN ANALYZE path) Record into it after every
// profiled query; consumers read windows of q-errors to detect drift
// or harvest (query, truth) pairs for retraining. Safe for concurrent
// use; all methods are no-ops on a nil receiver.
type FeedbackLog struct {
	mu       sync.Mutex
	cap      int
	total    uint64
	entries  []ObservedCardinality
	observer func(est, actual float64)
}

// NewFeedbackLog returns a log retaining the last keep observations
// (default 512 when keep <= 0).
func NewFeedbackLog(keep int) *FeedbackLog {
	if keep <= 0 {
		keep = 512
	}
	return &FeedbackLog{cap: keep}
}

// SetObserver installs a callback invoked (synchronously, outside the
// log's lock) for every recorded pair — the hook the monitor's q-error
// KPI window hangs off. Set during wiring, before traffic.
func (f *FeedbackLog) SetObserver(fn func(est, actual float64)) {
	if f != nil {
		f.observer = fn
	}
}

// Record appends one observation.
func (f *FeedbackLog) Record(o ObservedCardinality) {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.total++
	f.entries = append(f.entries, o)
	if len(f.entries) > f.cap {
		f.entries = append(f.entries[:0], f.entries[len(f.entries)-f.cap:]...)
	}
	obs := f.observer
	f.mu.Unlock()
	if obs != nil {
		obs(o.Est, o.Actual)
	}
}

// Entries returns the retained observations, oldest first.
func (f *FeedbackLog) Entries() []ObservedCardinality {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]ObservedCardinality(nil), f.entries...)
}

// Total reports how many observations have ever been recorded
// (including ones the ring has since evicted).
func (f *FeedbackLog) Total() uint64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.total
}

// Window summarizes the q-errors of the last n retained observations
// (n <= 0 selects all retained).
func (f *FeedbackLog) Window(n int) ml.QErrorStats {
	entries := f.Entries()
	if n > 0 && len(entries) > n {
		entries = entries[len(entries)-n:]
	}
	qs := make([]float64, len(entries))
	for i, e := range entries {
		qs[i] = e.QError()
	}
	return ml.SummarizeQErrors(qs)
}

// FeedbackEstimator wraps a learned estimator with a replay buffer of
// executed-query truths. Profiled executions feed Record; Retrain folds
// the accumulated feedback into the model (fine-tuning the MLP on the
// workload the system actually served), which is how a frozen estimator
// tracks drift without a full offline retraining pass.
type FeedbackEstimator struct {
	Base *MLPEstimator

	mu        sync.Mutex
	queries   []workload.Query
	truths    []int
	onRetrain []func()
}

// OnRetrain registers a callback fired (synchronously, outside the
// lock) after every Retrain that actually updated the model — the hook
// plancache.Cache.WatchEstimator uses to drop compiled plans whose
// estimates the new weights would no longer give.
func (e *FeedbackEstimator) OnRetrain(fn func()) {
	e.mu.Lock()
	e.onRetrain = append(e.onRetrain, fn)
	e.mu.Unlock()
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
	hooks := e.onRetrain
	e.mu.Unlock()
	if len(queries) == 0 {
		return nil
	}
	if err := e.Base.Train(rng, queries, truths, epochs); err != nil {
		return err
	}
	for _, fn := range hooks {
		fn()
	}
	return nil
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
