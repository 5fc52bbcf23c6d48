package governance

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// ErrMemBudget is returned (wrapped) when a query's materialized rows
// exceed its memory budget. The executor aborts the query at the next
// charge site; nothing partial is returned.
var ErrMemBudget = errors.New("governance: query memory budget exceeded")

// MemBudget is one query's memory allowance, charged by the executor at
// row-materialization sites (scan outputs, filter/projection outputs,
// join results, aggregation state). Charges are approximate — the point
// is bounding the engine's materialization appetite under concurrency,
// not byte-exact accounting. All methods are safe for concurrent use
// (morsel workers charge concurrently) and no-ops on a nil receiver, so
// an unbudgeted executor pays one nil check per charge.
type MemBudget struct {
	limit   int64
	used    atomic.Int64
	peak    atomic.Int64
	aborted atomic.Bool // latches the one mem.aborts this budget may count
	m       Metrics
}

// NewMemBudget creates a budget of limit bytes (<= 0 means unlimited:
// charges are still accounted and metered, but never abort). Metrics
// may be the zero value to disable instrumentation.
func NewMemBudget(limit int64, m Metrics) *MemBudget {
	return &MemBudget{limit: limit, m: m}
}

// Charge records n more bytes of materialized rows, returning an error
// wrapping ErrMemBudget whenever the running total is past the limit.
// A budget is one query's, and mem.aborts counts queries: the first
// failing charge counts it and latches. Counting per crossing would
// over-count, because error teardown refunds live chunks and a second
// morsel worker, not yet stopped, can cross the limit again.
func (b *MemBudget) Charge(n int64) error {
	if b == nil || n <= 0 {
		return nil
	}
	used := b.used.Add(n)
	for {
		p := b.peak.Load()
		if used <= p || b.peak.CompareAndSwap(p, used) {
			break
		}
	}
	b.m.MemCharged.Add(uint64(n))
	if b.limit > 0 && used > b.limit {
		if b.aborted.CompareAndSwap(false, true) {
			b.m.MemAborts.Inc()
		}
		return fmt.Errorf("%w: %d of %d bytes", ErrMemBudget, used, b.limit)
	}
	return nil
}

// Refund returns n previously charged bytes to the budget. The
// streaming executor calls it when a pooled chunk is recycled — and, on
// error teardown, once for every charge still outstanding — so Used
// tracks *live* bytes and the budget bounds peak, not cumulative,
// materialization. Refunds never lower Peak.
func (b *MemBudget) Refund(n int64) {
	if b == nil || n <= 0 {
		return
	}
	b.used.Add(-n)
	b.m.MemRefunded.Add(uint64(n))
}

// Peak reports the high-water mark of live charged bytes.
func (b *MemBudget) Peak() int64 {
	if b == nil {
		return 0
	}
	return b.peak.Load()
}

// Used reports the bytes charged so far.
func (b *MemBudget) Used() int64 {
	if b == nil {
		return 0
	}
	return b.used.Load()
}

// Limit reports the budget's byte limit (0 = unlimited).
func (b *MemBudget) Limit() int64 {
	if b == nil {
		return 0
	}
	return b.limit
}
