package monitor

import (
	"strings"
	"testing"

	"aidb/internal/obs"
)

// detectRig wires a counter-backed time series to a detector with a
// small warmup so tests can drive windows by hand.
func detectRig(cfg DetectorConfig) (*obs.Registry, *obs.Counter, *obs.TimeSeries, *AlertLog, *AnomalyDetector) {
	reg := obs.NewRegistry()
	c := reg.Counter("work.units")
	ts := obs.NewTimeSeries(reg, 64)
	log := NewAlertLog(0)
	det := NewAnomalyDetector(ts, log, cfg)
	ts.SetOnSample(func(uint64) { det.Observe() })
	return reg, c, ts, log, det
}

func TestAnomalyDetectorFlagsBurst(t *testing.T) {
	_, c, ts, log, det := detectRig(DetectorConfig{Warmup: 4, Window: 8})
	ts.SampleOnce() // baseline seed
	// Steady state: 10 units per window.
	for w := 0; w < 10; w++ {
		c.Add(10)
		ts.SampleOnce()
	}
	if log.Len() != 0 {
		t.Fatalf("%d alerts on steady workload, want 0:\n%+v", log.Len(), log.Alerts())
	}
	// Burst: 500 units in one window.
	c.Add(500)
	ts.SampleOnce()
	if log.Len() != 1 {
		t.Fatalf("%d alerts after burst, want exactly 1:\n%+v", log.Len(), log.Alerts())
	}
	a := log.Alerts()[0]
	if a.Metric != "work.units" || a.Kind != "zscore" || a.Value != 500 {
		t.Errorf("alert = %+v", a)
	}
	if a.Score < 8 {
		t.Errorf("score = %v, want >= threshold", a.Score)
	}
	if det.Alerts() != 1 {
		t.Errorf("detector counted %d alerts", det.Alerts())
	}
}

// TestAnomalyDetectorLatch pins exactly-once alerting: a sustained
// anomaly emits one alert at its onset and re-arms only after the
// series returns to baseline.
func TestAnomalyDetectorLatch(t *testing.T) {
	_, c, ts, log, _ := detectRig(DetectorConfig{Warmup: 4, Window: 8})
	ts.SampleOnce()
	for w := 0; w < 8; w++ {
		c.Add(10)
		ts.SampleOnce()
	}
	// Sustained fault: five anomalous windows.
	for w := 0; w < 5; w++ {
		c.Add(500)
		ts.SampleOnce()
	}
	if log.Len() != 1 {
		t.Fatalf("%d alerts during sustained fault, want 1 (latched):\n%+v", log.Len(), log.Alerts())
	}
	// Recovery long enough for the rolling baseline to re-center, then a
	// second burst must alert again.
	for w := 0; w < 12; w++ {
		c.Add(10)
		ts.SampleOnce()
	}
	if log.Len() != 1 {
		t.Fatalf("%d alerts after recovery, want still 1:\n%+v", log.Len(), log.Alerts())
	}
	c.Add(500)
	ts.SampleOnce()
	if log.Len() != 2 {
		t.Fatalf("%d alerts after second burst, want 2 (re-armed):\n%+v", log.Len(), log.Alerts())
	}
}

func TestAnomalyDetectorWarmup(t *testing.T) {
	_, c, ts, log, _ := detectRig(DetectorConfig{Warmup: 6, Window: 8})
	ts.SampleOnce()
	// Wild swings inside the warmup period must stay silent.
	for _, v := range []uint64{1, 900, 3, 700, 2} {
		c.Add(v)
		ts.SampleOnce()
	}
	if log.Len() != 0 {
		t.Fatalf("%d alerts during warmup, want 0:\n%+v", log.Len(), log.Alerts())
	}
}

// TestAnomalyDetectorScaleFloor checks a rock-steady high-volume series
// does not alert on a proportionally tiny wiggle (MAD is zero, so only
// the relative-scale floor stands between it and a division by almost
// nothing).
func TestAnomalyDetectorScaleFloor(t *testing.T) {
	_, c, ts, log, _ := detectRig(DetectorConfig{Warmup: 4, Window: 8})
	ts.SampleOnce()
	for w := 0; w < 10; w++ {
		c.Add(1000)
		ts.SampleOnce()
	}
	c.Add(1030) // 3% above a perfectly flat baseline
	ts.SampleOnce()
	if log.Len() != 0 {
		t.Fatalf("3%% wiggle alerted:\n%+v", log.Alerts())
	}
	c.Add(3000) // 3x is a real anomaly
	ts.SampleOnce()
	if log.Len() != 1 {
		t.Fatalf("3x burst not alerted (%d alerts)", log.Len())
	}
}

func TestAnomalyDetectorWatchFilter(t *testing.T) {
	reg := obs.NewRegistry()
	watched := reg.Counter("watched")
	ignored := reg.Counter("ignored")
	ts := obs.NewTimeSeries(reg, 64)
	log := NewAlertLog(0)
	det := NewAnomalyDetector(ts, log, DetectorConfig{Warmup: 4, Window: 8, Watch: []string{"watched"}})
	ts.SetOnSample(func(uint64) { det.Observe() })
	ts.SampleOnce()
	for w := 0; w < 10; w++ {
		watched.Add(10)
		ignored.Add(10)
		ts.SampleOnce()
	}
	watched.Add(500)
	ignored.Add(500)
	ts.SampleOnce()
	alerts := log.Alerts()
	if len(alerts) != 1 || alerts[0].Metric != "watched" {
		t.Fatalf("alerts = %+v, want exactly one for the watched series", alerts)
	}
}

// TestAnomalyDetectorRules covers the hard KPI rules: load shedding and
// a breaker leaving its closed state alert regardless of statistics.
func TestAnomalyDetectorRules(t *testing.T) {
	reg := obs.NewRegistry()
	shed := reg.Counter("admission.shed")
	state := reg.Gauge("guard.kv.state")
	ts := obs.NewTimeSeries(reg, 64)
	log := NewAlertLog(0)
	det := NewAnomalyDetector(ts, log, DetectorConfig{Watch: []string{"none"}})
	ts.SetOnSample(func(uint64) { det.Observe() })
	ts.SampleOnce()
	ts.SampleOnce()
	if log.Len() != 0 {
		t.Fatalf("alerts on healthy state:\n%+v", log.Alerts())
	}
	// Shed storm across two windows: one alert at onset.
	shed.Add(5)
	ts.SampleOnce()
	shed.Add(3)
	ts.SampleOnce()
	if log.Len() != 1 {
		t.Fatalf("%d shed alerts, want 1:\n%+v", log.Len(), log.Alerts())
	}
	if a := log.Alerts()[0]; a.Kind != "rule" || a.Metric != "admission.shed" {
		t.Errorf("alert = %+v", a)
	}
	// Quiet window re-arms; the next shed alerts again.
	ts.SampleOnce()
	shed.Add(1)
	ts.SampleOnce()
	if log.Len() != 2 {
		t.Fatalf("%d shed alerts after re-arm, want 2:\n%+v", log.Len(), log.Alerts())
	}
	// Breaker opens (1), stays open, half-opens (2), closes (0), opens
	// again: alerts at each closed->not-closed edge only.
	state.Set(1)
	ts.SampleOnce()
	ts.SampleOnce()
	state.Set(2)
	ts.SampleOnce()
	if got := log.Len(); got != 3 {
		t.Fatalf("%d alerts while breaker open/half-open, want 3:\n%+v", got, log.Alerts())
	}
	if a := log.Alerts()[2]; a.Metric != "guard.kv.state" || !strings.Contains(a.Detail, "open") {
		t.Errorf("breaker alert = %+v", a)
	}
	state.Set(0)
	ts.SampleOnce()
	state.Set(1)
	ts.SampleOnce()
	if got := log.Len(); got != 4 {
		t.Fatalf("%d alerts after breaker reopens, want 4:\n%+v", got, log.Alerts())
	}
}

func TestAlertLogRing(t *testing.T) {
	log := NewAlertLog(3)
	for i := 0; i < 5; i++ {
		log.Record(Alert{Window: uint64(i), Metric: "m", Kind: "zscore"})
	}
	if log.Len() != 3 || log.Dropped() != 2 {
		t.Fatalf("len=%d dropped=%d, want 3/2", log.Len(), log.Dropped())
	}
	as := log.Alerts()
	if as[0].Seq != 3 || as[2].Seq != 5 {
		t.Errorf("ring kept seqs %d..%d, want 3..5", as[0].Seq, as[2].Seq)
	}
}

func TestAlertLogNilSafe(t *testing.T) {
	var l *AlertLog
	l.Record(Alert{})
	if l.Alerts() != nil || l.Len() != 0 || l.Dropped() != 0 {
		t.Error("nil AlertLog not inert")
	}
	var d *AnomalyDetector
	d.Observe()
	if d.Alerts() != 0 {
		t.Error("nil detector not inert")
	}
}
