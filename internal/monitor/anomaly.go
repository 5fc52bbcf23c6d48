package monitor

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"aidb/internal/obs"
)

// Alert is one KPI anomaly the detector flagged.
type Alert struct {
	// Seq is the alert's 1-based sequence in its log.
	Seq uint64
	// Window is the sampling window (TimeSeries.Windows at detection
	// time) in which the anomaly was observed.
	Window uint64
	// Metric is the time-series name that tripped.
	Metric string
	// Kind classifies the trigger: "zscore" for the robust-statistics
	// detector, "rule" for hard KPI rules (breaker open, load shedding).
	Kind string
	// Value is the observed sample; Score its robust z-score (0 for
	// rule alerts).
	Value float64
	Score float64
	// Detail is a human-readable one-liner.
	Detail string
}

// AlertLog is a bounded ring of alerts, newest kept. Safe for
// concurrent use; all methods no-op on a nil receiver.
type AlertLog struct {
	mu      sync.Mutex
	cap     int
	seq     uint64
	dropped uint64
	alerts  []Alert
}

// NewAlertLog returns a log retaining the last keep alerts (default 64
// when keep <= 0).
func NewAlertLog(keep int) *AlertLog {
	if keep <= 0 {
		keep = 64
	}
	return &AlertLog{cap: keep}
}

// Record files one alert, assigning its Seq.
func (l *AlertLog) Record(a Alert) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.seq++
	a.Seq = l.seq
	l.alerts = append(l.alerts, a)
	if len(l.alerts) > l.cap {
		over := len(l.alerts) - l.cap
		l.dropped += uint64(over)
		l.alerts = append(l.alerts[:0], l.alerts[over:]...)
	}
}

// Alerts returns the retained alerts, oldest first.
func (l *AlertLog) Alerts() []Alert {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Alert(nil), l.alerts...)
}

// Len reports the number of retained alerts.
func (l *AlertLog) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.alerts)
}

// Dropped reports how many alerts the ring bound has evicted.
func (l *AlertLog) Dropped() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dropped
}

// DetectorConfig tunes the anomaly detector. The zero value is usable:
// every field has a working default applied by NewAnomalyDetector.
type DetectorConfig struct {
	// Window is how many recent samples form the rolling baseline
	// (default 16).
	Window int
	// Warmup is how many samples a series must accumulate before it can
	// alert (default 8) — a cold series has no meaningful baseline.
	Warmup int
	// ZThresh is the robust z-score at which a sample is anomalous
	// (default 8; robust scores grow fast once a sample truly leaves
	// the baseline band, so the threshold is deliberately high).
	ZThresh float64
	// ZClear is the score below which a latched series re-arms
	// (default ZThresh/2) — hysteresis so a sustained fault emits one
	// alert, not one per window.
	ZClear float64
	// RelScale floors the robust scale at RelScale*|median| (default
	// 0.05): a rock-steady series (MAD 0) must not alert on a 1-unit
	// wiggle around a large median.
	RelScale float64
	// MinScale is the absolute scale floor (default 1).
	MinScale float64
	// Watch restricts z-score detection to these series names; empty
	// watches every series the sampler derives.
	Watch []string
}

func (c DetectorConfig) withDefaults() DetectorConfig {
	if c.Window <= 0 {
		c.Window = 16
	}
	if c.Warmup <= 0 {
		c.Warmup = 8
	}
	if c.ZThresh <= 0 {
		c.ZThresh = 8
	}
	if c.ZClear <= 0 {
		c.ZClear = c.ZThresh / 2
	}
	if c.RelScale <= 0 {
		c.RelScale = 0.05
	}
	if c.MinScale <= 0 {
		c.MinScale = 1
	}
	return c
}

// seriesState is the detector's per-series memory: a bounded baseline
// of recent NON-anomalous samples and the alert latch. Anomalous
// samples never enter the baseline, so a sustained fault cannot drag
// the median up and make the eventual recovery read as a second
// anomaly.
type seriesState struct {
	hist    []float64
	latched bool
}

// AnomalyDetector watches a TimeSeries for KPI anomalies. It combines
// the iSQUAD-style statistical view (per-series rolling robust z-score:
// a sample is anomalous when it sits far outside the median±MAD band of
// its own recent healthy history) with hard KPI rules for states that
// are anomalous by definition — a circuit breaker leaving closed, the
// admission gate shedding load. Alerts are edge-triggered with
// hysteresis: one alert when a series goes anomalous, silence until it
// returns to baseline, so a sustained fault is exactly one alert.
//
// Drive it by calling Observe after each sampling window (the core DB
// wires it to TimeSeries.SetOnSample). Nil-receiver safe.
type AnomalyDetector struct {
	ts  *obs.TimeSeries
	log *AlertLog
	cfg DetectorConfig

	mu    sync.Mutex
	state map[string]*seriesState
	// ruleLatched marks rule keys currently in the anomalous state —
	// re-alerting is suppressed until they clear.
	ruleLatched map[string]bool
	// lastShed is the previous admission.shed counter sample, so the
	// shed rule fires on deltas.
	lastShed   float64
	seenShed   bool
	watchSet   map[string]bool
	totalAlert uint64
}

// NewAnomalyDetector builds a detector emitting into log as it watches
// ts. Zero-value cfg fields take defaults.
func NewAnomalyDetector(ts *obs.TimeSeries, log *AlertLog, cfg DetectorConfig) *AnomalyDetector {
	cfg = cfg.withDefaults()
	d := &AnomalyDetector{
		ts: ts, log: log, cfg: cfg,
		state:       map[string]*seriesState{},
		ruleLatched: map[string]bool{},
	}
	if len(cfg.Watch) > 0 {
		d.watchSet = make(map[string]bool, len(cfg.Watch))
		for _, w := range cfg.Watch {
			d.watchSet[w] = true
		}
	}
	return d
}

// Alerts reports how many alerts the detector has emitted.
func (d *AnomalyDetector) Alerts() uint64 {
	if d == nil {
		return 0
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.totalAlert
}

// Observe runs one detection pass over the latest sampling window.
// Call it after each TimeSeries sample.
func (d *AnomalyDetector) Observe() {
	if d == nil || d.ts == nil {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	window := d.ts.Windows()
	for _, name := range d.ts.Names() {
		d.observeRules(name, window)
		if d.watchSet != nil && !d.watchSet[name] {
			continue
		}
		d.observeZ(name, window)
	}
}

// observeZ applies the rolling robust z-score to one series. Only
// samples judged healthy join the baseline: during a latched anomaly
// the baseline is frozen at its pre-fault state, so recovery reads as
// a return to normal (silent re-arm), never as a second anomaly.
func (d *AnomalyDetector) observeZ(name string, window uint64) {
	p, ok := d.ts.Latest(name)
	if !ok {
		return
	}
	x := p.V
	st := d.state[name]
	if st == nil {
		st = &seriesState{}
		d.state[name] = st
	}
	if len(st.hist) < d.cfg.Warmup {
		st.hist = append(st.hist, x)
		return
	}
	med := median(st.hist)
	scale := 1.4826 * mad(st.hist, med)
	if f := d.cfg.RelScale * math.Abs(med); scale < f {
		scale = f
	}
	if scale < d.cfg.MinScale {
		scale = d.cfg.MinScale
	}
	z := math.Abs(x-med) / scale
	if st.latched {
		if z < d.cfg.ZClear {
			st.latched = false
			st.push(x, d.cfg.Window)
		}
		return
	}
	if z >= d.cfg.ZThresh {
		st.latched = true
		d.emit(Alert{
			Window: window, Metric: name, Kind: "zscore", Value: x, Score: z,
			Detail: fmt.Sprintf("value %.4g vs baseline median %.4g (robust z=%.1f)", x, med, z),
		})
		return
	}
	st.push(x, d.cfg.Window)
}

// push appends a healthy sample to the baseline, keeping the last
// window samples.
func (s *seriesState) push(x float64, window int) {
	s.hist = append(s.hist, x)
	if len(s.hist) > window {
		s.hist = append(s.hist[:0], s.hist[len(s.hist)-window:]...)
	}
}

// observeRules applies the hard KPI rules to one series sample.
func (d *AnomalyDetector) observeRules(name string, window uint64) {
	p, ok := d.ts.Latest(name)
	if !ok {
		return
	}
	switch {
	case name == "admission.shed":
		// admission.shed is a counter series (per-window delta): any
		// positive delta means the gate refused work this window.
		wasShed := d.seenShed && d.lastShed > 0
		d.lastShed, d.seenShed = p.V, true
		if p.V > 0 && !wasShed {
			d.emit(Alert{
				Window: window, Metric: name, Kind: "rule", Value: p.V,
				Detail: fmt.Sprintf("admission gate shed %.0f queries this window", p.V),
			})
		}
	case strings.HasPrefix(name, "guard.") && strings.HasSuffix(name, ".state"):
		// Breaker state gauge: 0 closed, 1 open, 2 half-open. Alert on
		// the closed->not-closed edge; re-arm when it closes again.
		key := "rule:" + name
		switch {
		case p.V != 0 && !d.ruleLatched[key]:
			d.ruleLatched[key] = true
			state := "open"
			if p.V == 2 {
				state = "half-open"
			}
			d.emit(Alert{
				Window: window, Metric: name, Kind: "rule", Value: p.V,
				Detail: fmt.Sprintf("circuit breaker %s", state),
			})
		case p.V == 0 && d.ruleLatched[key]:
			delete(d.ruleLatched, key)
		}
	}
}

func (d *AnomalyDetector) emit(a Alert) {
	d.totalAlert++
	d.log.Record(a)
}

// median returns the middle of xs (mean of middles for even length).
// xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mad returns the median absolute deviation of xs around med.
func mad(xs []float64, med float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	dev := make([]float64, len(xs))
	for i, x := range xs {
		dev[i] = math.Abs(x - med)
	}
	return median(dev)
}
