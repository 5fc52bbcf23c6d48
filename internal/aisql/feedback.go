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
	mu    sync.Mutex
	keep  int
	total uint64
	// ring holds the last min(total, keep) observations. It grows to
	// keep entries as they arrive, so a log nothing records into holds
	// none; once full, the next one goes to ring[total%keep], over the
	// oldest.
	ring []ObservedCardinality
}

// NewFeedbackLog returns a log retaining the last keep observations
// (default 512 when keep <= 0).
func NewFeedbackLog(keep int) *FeedbackLog {
	if keep <= 0 {
		keep = 512
	}
	return &FeedbackLog{keep: keep}
}

// Record appends one observation.
func (f *FeedbackLog) Record(o ObservedCardinality) {
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.ring) < f.keep {
		f.ring = append(f.ring, o)
	} else {
		f.ring[f.total%uint64(f.keep)] = o
	}
	f.total++
}

// last returns the latest n retained observations, oldest first, as up
// to two runs of the ring. Caller holds mu.
func (f *FeedbackLog) last(n int) (older, newer []ObservedCardinality) {
	if n = min(n, len(f.ring)); n == 0 {
		return nil, nil
	}
	head := int(f.total % uint64(len(f.ring)))
	if n <= head {
		return nil, f.ring[head-n : head]
	}
	return f.ring[len(f.ring)-(n-head):], f.ring[:head]
}

// Entries returns the retained observations, oldest first.
func (f *FeedbackLog) Entries() []ObservedCardinality {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	older, newer := f.last(len(f.ring))
	return append(append([]ObservedCardinality(nil), older...), newer...)
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
	older, newer := f.last(medianWindow)
	qs := make([]float64, 0, len(older)+len(newer))
	for _, run := range [...][]ObservedCardinality{older, newer} {
		for _, e := range run {
			qs = append(qs, e.QError())
		}
	}
	f.mu.Unlock()
	if len(qs) == 0 {
		return 1
	}
	sort.Float64s(qs)
	return qs[len(qs)/2]
}
