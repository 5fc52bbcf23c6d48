package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// This file is the metric-history half of the observability plane: a
// bounded sliding-window time-series ring per registry metric, driven
// by a background sampler goroutine. The AI4DB loop (monitoring →
// diagnosis → self-tuning) needs history, not snapshots — anomaly
// detection, aidb-top sparklines, and the /timeseries HTTP endpoint all
// read these windows.
//
// Derivation rules per metric type:
//
//   - counters  -> one series of per-window deltas (a rate when divided
//     by the sampling interval);
//   - gauges and gauge funcs -> one series of raw samples;
//   - histograms -> <name>.p50/.p95/.p99 series of *per-window*
//     quantiles (estimated from the window's bucket-count deltas, not
//     the cumulative distribution) plus a <name>.rate series of
//     per-window observation counts.
//
// Memory is strictly bounded: one fixed-capacity ring per derived
// series, so the footprint is capacity x series-count and never grows
// past it no matter how long the sampler runs.

// Point is one sampled time-series value.
type Point struct {
	T time.Time `json:"t"`
	V float64   `json:"v"`
}

// seriesRing is a fixed-capacity circular buffer of points. Access is
// guarded by the owning TimeSeries mutex.
type seriesRing struct {
	buf   []Point
	start int // index of the oldest point
	n     int // live points (<= cap(buf))
}

func newSeriesRing(capacity int) *seriesRing {
	return &seriesRing{buf: make([]Point, capacity)}
}

func (s *seriesRing) push(p Point) {
	if s.n < len(s.buf) {
		s.buf[(s.start+s.n)%len(s.buf)] = p
		s.n++
		return
	}
	s.buf[s.start] = p
	s.start = (s.start + 1) % len(s.buf)
}

// last returns up to n points, oldest first (all when n <= 0).
func (s *seriesRing) last(n int) []Point {
	if n <= 0 || n > s.n {
		n = s.n
	}
	out := make([]Point, n)
	for i := 0; i < n; i++ {
		out[i] = s.buf[(s.start+s.n-n+i)%len(s.buf)]
	}
	return out
}

// histPrev is the previous cumulative bucket snapshot of one histogram,
// diffed against the current one to derive per-window quantiles.
type histPrev struct {
	counts []uint64
	count  uint64
}

// TimeSeries maintains one bounded ring of sampled points per derived
// registry metric. Sampling is lock-light and entirely off the metric
// writer hot path: metric pointers are cached (re-resolved only when the
// registry's registration generation changes), values are read from
// atomics outside any lock, and the TimeSeries mutex is held only while
// pushing points into the rings. All methods are safe for concurrent
// use and no-ops on a nil receiver.
type TimeSeries struct {
	reg      *Registry
	capacity int

	mu      sync.Mutex
	series  map[string]*seriesRing
	prevCtr map[string]uint64
	prevH   map[string]histPrev
	windows uint64

	// cached metric refs, refreshed when reg.Gen() moves. Guarded by
	// sampleMu: samples are serialized against each other, but never
	// against ring readers (ts.mu) or metric writers (atomics only).
	sampleMu sync.Mutex
	refs     []metricRef
	refGen   uint64
	refOK    bool

	// onSample is invoked (outside the mutex) after every completed
	// sample window — the anomaly detector's hook.
	onSample func(window uint64)

	// lastSampleNs is the wall-clock cost of the most recent sample,
	// the sampler's self-overhead measurement.
	lastSampleNs int64

	// sampler goroutine lifecycle.
	runMu sync.Mutex
	stop  chan struct{}
	done  chan struct{}
}

// NewTimeSeries creates a time-series store over reg retaining the last
// capacity points per series (default 360 when capacity <= 0). Nothing
// is sampled until SampleOnce or Start is called; counter baselines are
// seeded at the first sample.
func NewTimeSeries(reg *Registry, capacity int) *TimeSeries {
	if capacity <= 0 {
		capacity = 360
	}
	return &TimeSeries{
		reg:      reg,
		capacity: capacity,
		series:   map[string]*seriesRing{},
		prevCtr:  map[string]uint64{},
		prevH:    map[string]histPrev{},
	}
}

// SetOnSample registers a callback invoked after every completed sample
// window with the window's 1-based index. Set it before Start; it runs
// on the sampler goroutine (or the SampleOnce caller), outside the
// TimeSeries mutex.
func (ts *TimeSeries) SetOnSample(fn func(window uint64)) {
	if ts != nil {
		ts.onSample = fn
	}
}

// Capacity reports the per-series ring capacity.
func (ts *TimeSeries) Capacity() int {
	if ts == nil {
		return 0
	}
	return ts.capacity
}

// Windows reports how many sample windows have completed.
func (ts *TimeSeries) Windows() uint64 {
	if ts == nil {
		return 0
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return ts.windows
}

// LastSampleNs reports the wall-clock cost of the most recent sample —
// the sampler's own overhead.
func (ts *TimeSeries) LastSampleNs() int64 {
	if ts == nil {
		return 0
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return ts.lastSampleNs
}

// Names returns every derived series name, sorted.
func (ts *TimeSeries) Names() []string {
	if ts == nil {
		return nil
	}
	ts.mu.Lock()
	out := make([]string, 0, len(ts.series))
	for n := range ts.series {
		out = append(out, n)
	}
	ts.mu.Unlock()
	sort.Strings(out)
	return out
}

// SeriesCount reports how many derived series exist.
func (ts *TimeSeries) SeriesCount() int {
	if ts == nil {
		return 0
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return len(ts.series)
}

// Points returns the last n points of the named series, oldest first
// (all retained points when n <= 0; nil when the series is unknown).
func (ts *TimeSeries) Points(name string, n int) []Point {
	if ts == nil {
		return nil
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	s := ts.series[name]
	if s == nil {
		return nil
	}
	return s.last(n)
}

// Latest returns the newest point of the named series.
func (ts *TimeSeries) Latest(name string) (Point, bool) {
	pts := ts.Points(name, 1)
	if len(pts) == 0 {
		return Point{}, false
	}
	return pts[0], true
}

// SampleOnce takes one sample window now. Tests and deterministic
// experiments drive the window clock manually through this; the
// background sampler calls it on every tick.
func (ts *TimeSeries) SampleOnce() {
	ts.sampleAt(time.Now())
}

// sampleVal is one metric reading taken outside all locks.
type sampleVal struct {
	ref  metricRef
	ctr  uint64
	f    float64
	hist HistogramSnapshot
}

func (ts *TimeSeries) sampleAt(now time.Time) {
	if ts == nil || ts.reg == nil {
		return
	}
	start := time.Now()
	ts.sampleMu.Lock()
	defer ts.sampleMu.Unlock()
	// Refresh the cached metric set only when registration moved; the
	// registry read lock is touched at most once per new registration,
	// not once per window.
	if gen := ts.reg.Gen(); !ts.refOK || gen != ts.refGen {
		ts.refs = ts.reg.refs()
		ts.refGen = gen
		ts.refOK = true
	}
	// Read every value lock-free (atomics and gauge callbacks) before
	// taking the TimeSeries mutex.
	vals := make([]sampleVal, 0, len(ts.refs))
	for _, m := range ts.refs {
		v := sampleVal{ref: m}
		switch {
		case m.c != nil:
			v.ctr = m.c.Value()
		case m.g != nil:
			v.f = m.g.Value()
		case m.fn != nil:
			v.f = m.fn()
		case m.h != nil:
			v.hist = m.h.Snapshot()
		}
		vals = append(vals, v)
	}
	ts.mu.Lock()
	for _, v := range vals {
		switch {
		case v.ref.c != nil:
			prev, seen := ts.prevCtr[v.ref.name]
			ts.prevCtr[v.ref.name] = v.ctr
			if !seen {
				// A delta needs two samples; the first one only seeds
				// the baseline so startup totals never masquerade as a
				// one-window burst.
				continue
			}
			ts.push(v.ref.name, Point{T: now, V: float64(v.ctr - prev)})
		case v.ref.g != nil, v.ref.fn != nil:
			ts.push(v.ref.name, Point{T: now, V: v.f})
		case v.ref.h != nil:
			prev, seen := ts.prevH[v.ref.name]
			ts.prevH[v.ref.name] = histPrev{counts: v.hist.BucketCounts, count: v.hist.Count}
			if !seen {
				continue
			}
			delta := make([]uint64, len(v.hist.BucketCounts))
			for i := range delta {
				var p uint64
				if i < len(prev.counts) {
					p = prev.counts[i]
				}
				delta[i] = v.hist.BucketCounts[i] - p
			}
			ts.push(v.ref.name+".rate", Point{T: now, V: float64(v.hist.Count - prev.count)})
			for _, q := range [...]struct {
				suffix string
				q      float64
			}{{".p50", 0.50}, {".p95", 0.95}, {".p99", 0.99}} {
				ts.push(v.ref.name+q.suffix,
					Point{T: now, V: quantileFromBuckets(v.hist.Bounds, delta, v.hist.Max, q.q)})
			}
		}
	}
	ts.windows++
	window := ts.windows
	ts.lastSampleNs = time.Since(start).Nanoseconds()
	fn := ts.onSample
	ts.mu.Unlock()
	if fn != nil {
		fn(window)
	}
}

// push appends one point to the named ring, creating it at fixed
// capacity on first use. Caller holds ts.mu.
func (ts *TimeSeries) push(name string, p Point) {
	s := ts.series[name]
	if s == nil {
		s = newSeriesRing(ts.capacity)
		ts.series[name] = s
	}
	s.push(p)
}

// Start launches the background sampler, taking one window every
// interval (default 1s when interval <= 0) until Stop. Starting an
// already-running sampler is a no-op. The sampler goroutine is entirely
// off the metric writer hot path: writers touch only their own atomics.
func (ts *TimeSeries) Start(interval time.Duration) {
	if ts == nil {
		return
	}
	if interval <= 0 {
		interval = time.Second
	}
	ts.runMu.Lock()
	defer ts.runMu.Unlock()
	if ts.stop != nil {
		return
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	ts.stop, ts.done = stop, done
	go func() {
		defer close(done)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case t := <-tick.C:
				ts.sampleAt(t)
			}
		}
	}()
}

// Stop halts the background sampler and waits for it to exit. Safe to
// call when not running.
func (ts *TimeSeries) Stop() {
	if ts == nil {
		return
	}
	ts.runMu.Lock()
	defer ts.runMu.Unlock()
	if ts.stop == nil {
		return
	}
	close(ts.stop)
	<-ts.done
	ts.stop, ts.done = nil, nil
}

// Running reports whether the background sampler is active.
func (ts *TimeSeries) Running() bool {
	if ts == nil {
		return false
	}
	ts.runMu.Lock()
	defer ts.runMu.Unlock()
	return ts.stop != nil
}

// WriteJSONTo renders the named series (its last n points; all when
// n <= 0) as one JSON object. An unknown name yields an empty points
// array, and a nil TimeSeries writes an empty object.
func (ts *TimeSeries) WriteJSONTo(w io.Writer, name string, n int) (int64, error) {
	if ts == nil {
		nn, err := io.WriteString(w, "{}\n")
		return int64(nn), err
	}
	pts := ts.Points(name, n)
	var sb strings.Builder
	fmt.Fprintf(&sb, "{\n  \"name\": %q,\n  \"points\": [", name)
	for i, p := range pts {
		if i > 0 {
			sb.WriteString(",")
		}
		fmt.Fprintf(&sb, "\n    {\"t\": %q, \"v\": %s}", p.T.Format(time.RFC3339Nano), jsonNum(p.V))
	}
	if len(pts) > 0 {
		sb.WriteString("\n  ")
	}
	sb.WriteString("]\n}\n")
	nn, err := io.WriteString(w, sb.String())
	return int64(nn), err
}
