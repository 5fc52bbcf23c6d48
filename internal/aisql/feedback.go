package aisql

import (
	"sort"
	"sync"

	"aidb/internal/ml"
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

// FeedbackLog is a bounded ring of observed cardinalities. EXPLAIN
// ANALYZE records into it after every profiled query; consumers read
// its median q-error as a drift KPI or harvest (query, truth) pairs for
// retraining. Safe for concurrent use; all methods are no-ops (or
// identity values) on a nil receiver.
type FeedbackLog struct {
	mu      sync.Mutex
	cap     int
	total   uint64
	entries []ObservedCardinality
}

// NewFeedbackLog returns a log retaining the last keep observations
// (default 512 when keep <= 0).
func NewFeedbackLog(keep int) *FeedbackLog {
	if keep <= 0 {
		keep = 512
	}
	return &FeedbackLog{cap: keep}
}

// Record appends one observation.
func (f *FeedbackLog) Record(o ObservedCardinality) {
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.total++
	f.entries = append(f.entries, o)
	if len(f.entries) > f.cap {
		f.entries = append(f.entries[:0], f.entries[len(f.entries)-f.cap:]...)
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

// medianWindow is how many of the latest observations Median reads.
const medianWindow = 256

// Median is the upper median q-error of the last 256 retained
// observations — the cardest.qerror.window_median drift KPI: an
// estimator whose workload has shifted shows a rising median long
// before plan quality visibly collapses. A perfect estimator scores 1;
// an empty log also reports 1 (no evidence of error), which keeps the
// gauge quiet before traffic.
func (f *FeedbackLog) Median() float64 {
	if f == nil {
		return 1
	}
	f.mu.Lock()
	es := f.entries[max(0, len(f.entries)-medianWindow):]
	qs := make([]float64, len(es))
	for i, e := range es {
		qs[i] = e.QError()
	}
	f.mu.Unlock()
	if len(qs) == 0 {
		return 1
	}
	sort.Float64s(qs)
	return qs[len(qs)/2]
}
