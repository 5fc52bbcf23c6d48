// Package obs is aidb's observability substrate: a zero-dependency
// (stdlib-only) metrics registry plus lightweight span tracing. It is
// the observation/feedback plane that Baihe and NeurDB argue an
// AI-driven database needs — the learned monitor (internal/monitor)
// consumes KPI vectors derived from live registry snapshots instead of
// synthetic streams, and every perf experiment reads its baseline from
// the same counters the engine itself maintains.
//
// Design rules:
//
//   - Disabled must be (nearly) free. Every metric type is a pointer
//     whose methods are no-ops on a nil receiver, so an uninstrumented
//     component pays one predictable-branch nil check per event. Hot
//     paths hold pre-resolved *Counter/*Histogram fields; the registry
//     map is only consulted at construction time.
//   - Updates are lock-free. Counters and histogram buckets are
//     sync/atomic; the registry mutex guards registration only.
//   - Exposition is the Prometheus text format (WritePromTo) with a
//     JSON form (WriteJSONTo) for machine consumers.
//
// Metric names are dotted paths ("kv.get.injected_delay_units");
// variable parts (site names, breaker names) are appended as further
// dotted segments rather than label maps, keeping the exposition flat
// and greppable.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. All methods are
// no-ops (or zero) on a nil receiver.
type Counter struct {
	v atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous float64 value stored atomically. All
// methods are no-ops (or zero) on a nil receiver.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the stored value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Registry holds named metrics. The zero value is unusable; create one
// with NewRegistry. A nil *Registry is a valid "observability disabled"
// registry: every lookup returns a nil metric whose methods are no-ops.
type Registry struct {
	mu       sync.RWMutex
	gen      atomic.Uint64
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	funcs    map[string]func() float64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
		funcs:    map[string]func() float64{},
	}
}

// Counter returns the named counter, creating it on first use. On a nil
// registry it returns nil (a valid disabled counter).
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c := r.counters[name]; c != nil {
		return c
	}
	c = &Counter{}
	r.counters[name] = c
	r.gen.Add(1)
	return c
}

// Gen reports the registry's registration generation: it changes
// whenever a new metric or gauge func is registered, so samplers can
// cache the metric set and re-resolve only when it actually grew.
// Zero on a nil registry.
func (r *Registry) Gen() uint64 {
	if r == nil {
		return 0
	}
	return r.gen.Load()
}

// Gauge returns the named gauge, creating it on first use. Nil-registry
// safe.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
		r.gen.Add(1)
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket upper bounds on first use (later calls reuse the existing
// buckets). Nil-registry safe.
func (r *Registry) Histogram(name string, buckets []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = newHistogram(buckets)
		r.hists[name] = h
		r.gen.Add(1)
	}
	return h
}

// GaugeFunc registers a callback evaluated at exposition/snapshot time —
// the cheap way to export state owned elsewhere (breaker positions,
// chaos delay totals) without a write path. Nil-registry safe.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.funcs[name] = fn
	r.gen.Add(1)
}

// metricRef is one registered metric's identity — its exposition name
// plus the pointer (or callback) that yields its value. Exactly one of
// the value fields is set.
type metricRef struct {
	name string
	c    *Counter
	g    *Gauge
	fn   func() float64
	h    *Histogram
}

// refs snapshots the registered metric pointers under the read lock and
// returns them sorted by name. Values are NOT read here: callers read
// the atomics (and invoke gauge funcs) after the lock is released, so a
// slow scraper, an expensive gauge callback, or a large histogram
// summary can never stall metric writers or registration. Gauge funcs
// must therefore be callable without the registry lock — which every
// callback already had to be, since holding the lock while calling out
// risks lock inversion with instrumented components.
func (r *Registry) refs() []metricRef {
	r.mu.RLock()
	out := make([]metricRef, 0, len(r.counters)+len(r.gauges)+len(r.funcs)+len(r.hists))
	for n, c := range r.counters {
		out = append(out, metricRef{name: n, c: c})
	}
	for n, g := range r.gauges {
		out = append(out, metricRef{name: n, g: g})
	}
	for n, fn := range r.funcs {
		out = append(out, metricRef{name: n, fn: fn})
	}
	for n, h := range r.hists {
		out = append(out, metricRef{name: n, h: h})
	}
	r.mu.RUnlock()
	sort.Slice(out, func(a, b int) bool { return out[a].name < out[b].name })
	return out
}

// Snapshot returns every scalar metric as name -> value: counters,
// gauges, gauge funcs, and per-histogram count/sum/p50/p95/p99 — every
// number the expositions print. Monotonic names (counters, hist counts/sums)
// can be diffed across snapshots to form rates. Values are read outside
// the registry lock. Returns nil on a nil registry.
func (r *Registry) Snapshot() map[string]float64 {
	if r == nil {
		return nil
	}
	refs := r.refs()
	out := make(map[string]float64, 2*len(refs))
	for _, m := range refs {
		switch {
		case m.c != nil:
			out[m.name] = float64(m.c.Value())
		case m.g != nil:
			out[m.name] = m.g.Value()
		case m.fn != nil:
			out[m.name] = m.fn()
		case m.h != nil:
			s := m.h.Snapshot()
			out[m.name+".count"] = float64(s.Count)
			out[m.name+".sum"] = s.Sum
			out[m.name+".p50"] = s.P50
			out[m.name+".p95"] = s.P95
			out[m.name+".p99"] = s.P99
		}
	}
	return out
}

// WriteJSONTo renders the registry as a single sorted JSON object:
// scalars as numbers, histograms as {count, sum, p50, p95, p99}.
func (r *Registry) WriteJSONTo(w io.Writer) (int64, error) {
	if r == nil {
		n, err := io.WriteString(w, "{}\n")
		return int64(n), err
	}
	refs := r.refs()
	var total int64
	write := func(s string) error {
		n, err := io.WriteString(w, s)
		total += int64(n)
		return err
	}
	if err := write("{\n"); err != nil {
		return total, err
	}
	for i, m := range refs {
		var val string
		switch {
		case m.c != nil:
			val = fmt.Sprintf("%d", m.c.Value())
		case m.g != nil:
			val = jsonNum(m.g.Value())
		case m.fn != nil:
			val = jsonNum(m.fn())
		case m.h != nil:
			s := m.h.Snapshot()
			val = fmt.Sprintf(`{"count":%d,"sum":%s,"p50":%s,"p95":%s,"p99":%s}`,
				s.Count, jsonNum(s.Sum), jsonNum(s.P50), jsonNum(s.P95), jsonNum(s.P99))
		}
		sep := ","
		if i == len(refs)-1 {
			sep = ""
		}
		if err := write(fmt.Sprintf("  %q: %s%s\n", m.name, val, sep)); err != nil {
			return total, err
		}
	}
	err := write("}\n")
	return total, err
}

// jsonNum formats a float as a JSON-legal number (JSON has no NaN/Inf).
func jsonNum(v float64) string {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return "null"
	}
	return fmt.Sprintf("%g", v)
}
