package governance

import "aidb/internal/obs"

// Metrics bundles the resource-governance observability handles shared
// by the admission gate, per-query memory budgets, and the retry
// wrapper. The zero value disables everything (each field is a nil obs
// metric whose methods are no-ops), matching the repo-wide rule that
// uninstrumented components pay one nil check per event.
type Metrics struct {
	// Admission-control gate.
	Admitted *obs.Counter   // queries admitted past the gate
	Shed     *obs.Counter   // queries shed (deadline would expire before admission)
	QueuedNs *obs.Histogram // nanoseconds spent queued before admission

	// Per-query memory budgets.
	MemCharged  *obs.Counter // bytes charged at row-materialization sites
	MemRefunded *obs.Counter // bytes refunded when chunks are recycled
	MemAborts   *obs.Counter // queries aborted for exceeding their budget

	// Retry wrapper.
	RetryAttempts  *obs.Counter // re-attempts after a transient fault
	RetryExhausted *obs.Counter // retries that ran out of attempts
}

// NewMetrics resolves the governance metrics against reg. A nil
// registry yields the zero (disabled) Metrics. Counters are created
// eagerly so they appear in the exposition (system.metrics) even at zero.
func NewMetrics(reg *obs.Registry) Metrics {
	if reg == nil {
		return Metrics{}
	}
	return Metrics{
		Admitted:       reg.Counter("admission.admitted"),
		Shed:           reg.Counter("admission.shed"),
		QueuedNs:       reg.Histogram("admission.queued_ns", waitBuckets),
		MemCharged:     reg.Counter("mem.charged"),
		MemRefunded:    reg.Counter("mem.refunded"),
		MemAborts:      reg.Counter("mem.aborts"),
		RetryAttempts:  reg.Counter("retry.attempts"),
		RetryExhausted: reg.Counter("retry.exhausted"),
	}
}

// waitBuckets spans 1µs..~17s in powers of 4, the same shape as the
// executor's query-latency buckets so queue waits and query latencies
// are directly comparable.
var waitBuckets = obs.ExpBuckets(1e3, 4, 12)
