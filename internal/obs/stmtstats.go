package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultStatementCap bounds the number of distinct statements the
// statement store keeps before evicting the least recently seen one.
const DefaultStatementCap = 512

// StmtOutcome classifies how one statement execution finished.
type StmtOutcome int

// Statement outcomes.
const (
	StmtOK StmtOutcome = iota
	StmtError
	StmtCancel
	StmtShed
)

// StmtObservation is one statement execution reported to the store.
// Executions aggregate under Fingerprint, the plan shape, together with
// Key, the statement's normalized text ("" for a statement that arrived
// parsed), so two statements of one plan shape stay apart. Query is a
// representative text kept from the entry's first sighting.
type StmtObservation struct {
	Fingerprint string
	Key         string
	Query       string
	Outcome     StmtOutcome
	LatencyNs   int64
	Rows        int64
	Chunks      int64
	PeakBytes   int64
	// ChaosFires is the number of injected faults this execution's own
	// scans absorbed.
	ChaosFires int64
	// EndNs is when the execution finished, in Unix nanoseconds, for a
	// caller that has read the clock already; 0 makes Record read it.
	EndNs int64
}

// stmtLatBuckets cover query latencies from ~1µs to ~275s in powers of
// four — wider than DefBuckets because statement latencies routinely
// exceed a second under chaos injection.
var stmtLatBuckets = ExpBuckets(1024, 4, 16)

// stmtKey identifies one entry: see StmtObservation.
type stmtKey struct{ fingerprint, key string }

// stmtEntry is the hot-path record for one statement. The map only
// guards entry discovery; every field update is atomic so concurrent
// recorders never serialize on a lock.
type stmtEntry struct {
	fingerprint string
	query       string // first-seen representative text, immutable
	firstSeenNs int64  // immutable

	lastSeenNs atomic.Int64
	calls      atomic.Uint64
	errors     atomic.Uint64
	cancels    atomic.Uint64
	sheds      atomic.Uint64
	rows       atomic.Int64
	totalNs    atomic.Int64
	minNs      atomic.Int64 // math.MaxInt64 until first observation
	maxNs      atomic.Int64
	chunks     atomic.Int64
	peakBytes  atomic.Int64 // high-water mark across executions
	chaosFires atomic.Int64
	lat        *Histogram
}

// StatementStats is a cumulative, bounded per-statement statistics
// store: the one record of every statement the engine ran, and the
// queryable core behind system.statements. Recording takes a read lock
// plus atomic adds on the entry; only first sightings (and evictions)
// take the write lock. All methods are nil-safe.
type StatementStats struct {
	mu      sync.RWMutex
	byKey   map[stmtKey]*stmtEntry
	cap     int
	evicted atomic.Uint64
}

// NewStatementStats creates a store keeping at most capacity distinct
// statements (<=0 selects DefaultStatementCap).
func NewStatementStats(capacity int) *StatementStats {
	if capacity <= 0 {
		capacity = DefaultStatementCap
	}
	return &StatementStats{byKey: make(map[stmtKey]*stmtEntry), cap: capacity}
}

// Record folds one execution into its statement's entry.
func (s *StatementStats) Record(o StmtObservation) {
	if s == nil {
		return
	}
	now := o.EndNs
	if now == 0 {
		now = time.Now().UnixNano()
	}
	k := stmtKey{o.Fingerprint, o.Key}
	s.mu.RLock()
	e := s.byKey[k]
	s.mu.RUnlock()
	if e == nil {
		e = s.insert(k, o.Query, now)
	}
	e.lastSeenNs.Store(now)
	e.calls.Add(1)
	switch o.Outcome {
	case StmtError:
		e.errors.Add(1)
	case StmtCancel:
		e.cancels.Add(1)
	case StmtShed:
		e.sheds.Add(1)
	}
	e.rows.Add(o.Rows)
	e.totalNs.Add(o.LatencyNs)
	e.chunks.Add(o.Chunks)
	e.chaosFires.Add(o.ChaosFires)
	atomicMin(&e.minNs, o.LatencyNs)
	atomicMax(&e.maxNs, o.LatencyNs)
	atomicMax(&e.peakBytes, o.PeakBytes)
	e.lat.Observe(float64(o.LatencyNs))
}

// insert registers a new statement, evicting the least recently seen
// entry when the store is full.
func (s *StatementStats) insert(k stmtKey, query string, now int64) *stmtEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.byKey[k]; ok {
		return e
	}
	if len(s.byKey) >= s.cap {
		var victim stmtKey
		oldest := int64(math.MaxInt64)
		for vk, e := range s.byKey {
			if seen := e.lastSeenNs.Load(); seen < oldest {
				oldest, victim = seen, vk
			}
		}
		delete(s.byKey, victim)
		s.evicted.Add(1)
	}
	e := &stmtEntry{
		fingerprint: k.fingerprint,
		query:       query,
		firstSeenNs: now,
		lat:         newHistogram(stmtLatBuckets),
	}
	e.minNs.Store(math.MaxInt64)
	s.byKey[k] = e
	return e
}

func atomicMin(a *atomic.Int64, v int64) {
	for {
		old := a.Load()
		if v >= old || a.CompareAndSwap(old, v) {
			return
		}
	}
}

func atomicMax(a *atomic.Int64, v int64) {
	for {
		old := a.Load()
		if v <= old || a.CompareAndSwap(old, v) {
			return
		}
	}
}

// StatementStat is a point-in-time summary of one statement.
type StatementStat struct {
	Fingerprint string
	Query       string
	Calls       uint64
	Errors      uint64
	Cancels     uint64
	Sheds       uint64
	Rows        int64
	TotalNs     int64
	MinNs       int64
	MaxNs       int64
	P50Ns       int64
	P95Ns       int64
	P99Ns       int64
	Chunks      int64
	PeakBytes   int64
	ChaosFires  int64
	FirstSeenNs int64
	LastSeenNs  int64
}

// Snapshot summarizes every tracked statement, sorted by fingerprint and
// then text for deterministic output. Safe to call concurrently with
// Record.
func (s *StatementStats) Snapshot() []StatementStat {
	if s == nil {
		return nil
	}
	s.mu.RLock()
	entries := make([]*stmtEntry, 0, len(s.byKey))
	for _, e := range s.byKey {
		entries = append(entries, e)
	}
	s.mu.RUnlock()
	out := make([]StatementStat, 0, len(entries))
	for _, e := range entries {
		hs := e.lat.Snapshot()
		min := e.minNs.Load()
		if min == math.MaxInt64 {
			min = 0
		}
		out = append(out, StatementStat{
			Fingerprint: e.fingerprint,
			Query:       e.query,
			Calls:       e.calls.Load(),
			Errors:      e.errors.Load(),
			Cancels:     e.cancels.Load(),
			Sheds:       e.sheds.Load(),
			Rows:        e.rows.Load(),
			TotalNs:     e.totalNs.Load(),
			MinNs:       min,
			MaxNs:       e.maxNs.Load(),
			P50Ns:       int64(hs.P50),
			P95Ns:       int64(hs.P95),
			P99Ns:       int64(hs.P99),
			Chunks:      e.chunks.Load(),
			PeakBytes:   e.peakBytes.Load(),
			ChaosFires:  e.chaosFires.Load(),
			FirstSeenNs: e.firstSeenNs,
			LastSeenNs:  e.lastSeenNs.Load(),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Fingerprint != out[j].Fingerprint {
			return out[i].Fingerprint < out[j].Fingerprint
		}
		return out[i].Query < out[j].Query
	})
	return out
}

// Len reports the number of tracked statements.
func (s *StatementStats) Len() int {
	if s == nil {
		return 0
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.byKey)
}

// Evicted reports how many statements were dropped to stay under cap.
func (s *StatementStats) Evicted() uint64 {
	if s == nil {
		return 0
	}
	return s.evicted.Load()
}
