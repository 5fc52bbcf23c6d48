package exec

import (
	"aidb/internal/obs"
)

// Metrics bundles the executor's pre-resolved observability handles.
// The zero value disables everything: each field is a nil obs metric
// whose methods are no-ops, so an uninstrumented executor pays one
// predictable nil-check branch per event on the hot path (see
// BenchmarkExec and obs.TestDisabledOverheadNanos for the bound).
type Metrics struct {
	Queries       *obs.Counter
	QueryErrors   *obs.Counter
	RowsScanned   *obs.Counter
	RowsJoined    *obs.Counter
	RowsOutput    *obs.Counter
	InjectedDelay *obs.Counter
	// Compiles counts plans lowered into programs: a run of a kept
	// program compiles nothing.
	Compiles *obs.Counter
	// PagesPruned counts the heap pages scans left unread: their zones
	// rule out the scan's filter, or they hold no live row.
	PagesPruned *obs.Counter
	// QueryLatency observes wall-clock nanoseconds per Run call.
	QueryLatency *obs.Histogram

	// Morsel-driven parallelism counters: morsels dispatched (serial or
	// parallel — the serial path runs the same per-morsel logic),
	// worker goroutines launched, and operator instances that actually
	// fanned out to more than one worker.
	Morsels      *obs.Counter
	WorkerSpawns *obs.Counter
	ParallelOps  *obs.Counter

	// Streaming-pipeline counters: chunks emitted into pipelines (one
	// per batch a source or breaker hands downstream), chunk-pool hit
	// and miss counts (hits mean steady-state scans run allocation-
	// free), and the per-query peak of live charged bytes — the
	// streaming executor's headline number, bounded by chunks in flight
	// plus what breakers hold instead of every intermediate result.
	ChunksEmitted   *obs.Counter
	ChunkPoolHits   *obs.Counter
	ChunkPoolMisses *obs.Counter
	PeakBytes       *obs.Histogram

	// Cancellation accounting: runs that returned a context error, and
	// the teardown latency from the first cooperative check that saw the
	// cancellation to RunContext returning (how long a cancelled query
	// kept running — bounded by about one morsel per worker).
	CancelRequests *obs.Counter
	CancelLatency  *obs.Histogram

	// Per-operator parallel-speedup histograms (serial time / parallel
	// time, dimensionless). The executor never runs both modes itself;
	// E26, which does, feeds them through ObserveSpeedup.
	ScanSpeedup *obs.Histogram
	JoinSpeedup *obs.Histogram
	AggSpeedup  *obs.Histogram
}

// NewMetrics resolves the executor's metrics against reg. A nil
// registry yields the zero (disabled) Metrics.
func NewMetrics(reg *obs.Registry) Metrics {
	if reg == nil {
		return Metrics{}
	}
	return Metrics{
		Queries:         reg.Counter("exec.queries"),
		QueryErrors:     reg.Counter("exec.query_errors"),
		RowsScanned:     reg.Counter("exec.rows_scanned"),
		RowsJoined:      reg.Counter("exec.rows_joined"),
		RowsOutput:      reg.Counter("exec.rows_output"),
		InjectedDelay:   reg.Counter("exec.injected_delay_units"),
		Compiles:        reg.Counter("exec.compiles"),
		PagesPruned:     reg.Counter("exec.pages_pruned"),
		QueryLatency:    reg.Histogram("exec.query_latency_ns", latencyBuckets),
		CancelRequests:  reg.Counter("cancel.requests"),
		CancelLatency:   reg.Histogram("cancel.latency_ns", latencyBuckets),
		Morsels:         reg.Counter("exec.morsels"),
		WorkerSpawns:    reg.Counter("exec.worker_spawns"),
		ParallelOps:     reg.Counter("exec.parallel_ops"),
		ChunksEmitted:   reg.Counter("exec.chunks_emitted"),
		ChunkPoolHits:   reg.Counter("exec.chunk_pool.hits"),
		ChunkPoolMisses: reg.Counter("exec.chunk_pool.misses"),
		PeakBytes:       reg.Histogram("exec.peak_bytes", peakBuckets),
		ScanSpeedup:     reg.Histogram("exec.speedup.scan", speedupBuckets),
		JoinSpeedup:     reg.Histogram("exec.speedup.join", speedupBuckets),
		AggSpeedup:      reg.Histogram("exec.speedup.agg", speedupBuckets),
	}
}

// latencyBuckets spans 1µs..~17s in powers of 4 — wide enough for both
// micro-queries and chaos-slowed scans.
var latencyBuckets = obs.ExpBuckets(1e3, 4, 12)

// speedupBuckets spans 0.25x..32x in powers of 2: sub-1 buckets catch
// parallel regressions, the top buckets near-linear scaling on wide
// machines.
var speedupBuckets = obs.ExpBuckets(0.25, 2, 8)

// peakBuckets spans 1KiB..~16MiB in powers of 4 — a streaming query's
// peak is a few chunks, a materializing result set fills the top end.
var peakBuckets = obs.ExpBuckets(1024, 4, 12)

// ObserveSpeedup records a measured serial/parallel wall-clock ratio
// for one operator class: "scan", "join" or "agg" (anything else is
// dropped). No-op on disabled metrics.
func (m *Metrics) ObserveSpeedup(op string, x float64) {
	switch op {
	case "scan":
		m.ScanSpeedup.Observe(x)
	case "join":
		m.JoinSpeedup.Observe(x)
	case "agg":
		m.AggSpeedup.Observe(x)
	}
}
