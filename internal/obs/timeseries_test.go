package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTimeSeriesCounterDeltas(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c")
	ts := NewTimeSeries(reg, 8)
	c.Add(100)
	ts.SampleOnce() // seeds the baseline: no point
	if pts := ts.Points("c", 0); len(pts) != 0 {
		t.Fatalf("first sample emitted %d points, want 0 (baseline seed)", len(pts))
	}
	c.Add(5)
	ts.SampleOnce()
	c.Add(7)
	ts.SampleOnce()
	ts.SampleOnce() // idle window
	pts := ts.Points("c", 0)
	if len(pts) != 3 {
		t.Fatalf("%d points, want 3", len(pts))
	}
	for i, want := range []float64{5, 7, 0} {
		if pts[i].V != want {
			t.Errorf("window %d delta = %v, want %v", i, pts[i].V, want)
		}
	}
}

func TestTimeSeriesGaugeRawSamples(t *testing.T) {
	reg := NewRegistry()
	g := reg.Gauge("g")
	var fv float64
	reg.GaugeFunc("gf", func() float64 { return fv })
	ts := NewTimeSeries(reg, 8)
	for i, v := range []float64{3, -1, 42} {
		g.Set(v)
		fv = v * 10
		ts.SampleOnce()
		if p, ok := ts.Latest("g"); !ok || p.V != v {
			t.Errorf("window %d: gauge sample = %v/%v, want %v", i, p.V, ok, v)
		}
		if p, ok := ts.Latest("gf"); !ok || p.V != v*10 {
			t.Errorf("window %d: gauge-func sample = %v/%v, want %v", i, p.V, ok, v*10)
		}
	}
}

func TestTimeSeriesHistogramWindows(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("h", []float64{10, 100, 1000})
	ts := NewTimeSeries(reg, 8)
	h.Observe(5000) // pre-baseline observation must not leak into window 2
	ts.SampleOnce()
	for i := 0; i < 90; i++ {
		h.Observe(5)
	}
	for i := 0; i < 10; i++ {
		h.Observe(900)
	}
	ts.SampleOnce()
	if p, ok := ts.Latest("h.rate"); !ok || p.V != 100 {
		t.Errorf("h.rate = %v/%v, want 100 observations this window", p.V, ok)
	}
	p50, _ := ts.Latest("h.p50")
	if p50.V > 10 {
		t.Errorf("window p50 = %v, want <= 10 (90%% of window in first bucket)", p50.V)
	}
	p99, _ := ts.Latest("h.p99")
	if p99.V <= 100 || p99.V > 1000 {
		t.Errorf("window p99 = %v, want in (100, 1000] (tail bucket)", p99.V)
	}
	// An idle window has rate 0 and zero quantiles, not the cumulative
	// distribution's.
	ts.SampleOnce()
	if p, ok := ts.Latest("h.rate"); !ok || p.V != 0 {
		t.Errorf("idle window h.rate = %v, want 0", p.V)
	}
	if p, _ := ts.Latest("h.p99"); p.V != 0 {
		t.Errorf("idle window h.p99 = %v, want 0", p.V)
	}
}

// TestTimeSeriesBoundedMemory is the soak from the acceptance criteria:
// 10k windows against a fixed metric set must keep every ring at its
// fixed capacity — the footprint is capacity x series and never grows.
func TestTimeSeriesBoundedMemory(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c")
	reg.Gauge("g").Set(1)
	h := reg.Histogram("h", nil)
	const capacity = 32
	ts := NewTimeSeries(reg, capacity)
	for w := 0; w < 10000; w++ {
		c.Inc()
		h.Observe(float64(w % 500))
		ts.SampleOnce()
	}
	if got := ts.Windows(); got != 10000 {
		t.Fatalf("windows = %d, want 10000", got)
	}
	// Fixed derivation: c, g, h.rate, h.p50, h.p95, h.p99.
	if got := ts.SeriesCount(); got != 6 {
		t.Fatalf("series count = %d, want 6 (no per-window series growth)", got)
	}
	for _, name := range ts.Names() {
		if n := len(ts.Points(name, 0)); n != capacity {
			t.Errorf("series %q holds %d points, want capacity %d", name, n, capacity)
		}
		ring := ts.series[name]
		if len(ring.buf) != capacity {
			t.Errorf("series %q ring buffer len %d, want %d", name, len(ring.buf), capacity)
		}
	}
	// The newest counter window survives, the oldest retained is
	// 10000-capacity+1 windows in (deltas are all 1 here, so check
	// timestamps strictly increase across the ring instead).
	pts := ts.Points("c", 0)
	for i := 1; i < len(pts); i++ {
		if !pts[i].T.After(pts[i-1].T) && pts[i].T != pts[i-1].T {
			t.Fatalf("ring order broken at %d", i)
		}
	}
}

func TestTimeSeriesLateRegistration(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("a")
	ts := NewTimeSeries(reg, 8)
	a.Inc()
	ts.SampleOnce()
	// A metric registered after sampling began joins at the next window.
	b := reg.Counter("b")
	b.Add(3)
	ts.SampleOnce() // seeds b's baseline
	b.Add(4)
	ts.SampleOnce()
	pts := ts.Points("b", 0)
	if len(pts) != 1 || pts[0].V != 4 {
		t.Fatalf("late-registered counter points = %+v, want one delta of 4", pts)
	}
}

func TestTimeSeriesStartStop(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c")
	ts := NewTimeSeries(reg, 16)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 1000; i++ {
			c.Inc()
			time.Sleep(100 * time.Microsecond)
		}
	}()
	ts.Start(time.Millisecond)
	if !ts.Running() {
		t.Fatal("sampler not running after Start")
	}
	ts.Start(time.Millisecond) // idempotent
	deadline := time.Now().Add(5 * time.Second)
	for ts.Windows() < 5 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	<-done
	ts.Stop()
	if ts.Running() {
		t.Fatal("sampler still running after Stop")
	}
	w := ts.Windows()
	if w < 5 {
		t.Fatalf("only %d windows sampled", w)
	}
	time.Sleep(5 * time.Millisecond)
	if ts.Windows() != w {
		t.Error("windows advanced after Stop")
	}
	ts.Stop() // safe when not running
	if ts.LastSampleNs() <= 0 {
		t.Error("sampler overhead not recorded")
	}
}

func TestTimeSeriesOnSample(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("c")
	ts := NewTimeSeries(reg, 8)
	var got []uint64
	ts.SetOnSample(func(w uint64) { got = append(got, w) })
	ts.SampleOnce()
	ts.SampleOnce()
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("onSample windows = %v, want [1 2]", got)
	}
}

func TestTimeSeriesWriteJSON(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c")
	ts := NewTimeSeries(reg, 8)
	ts.SampleOnce()
	c.Add(9)
	ts.SampleOnce()
	var sb strings.Builder
	if _, err := ts.WriteJSONTo(&sb, "c", 0); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, `"name": "c"`) || !strings.Contains(out, `"v": 9`) {
		t.Errorf("JSON output missing fields:\n%s", out)
	}
	sb.Reset()
	if _, err := ts.WriteJSONTo(&sb, "nope", 0); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `"points": []`) {
		t.Errorf("unknown series should render empty points array:\n%s", sb.String())
	}
}

func TestTimeSeriesNilSafe(t *testing.T) {
	var ts *TimeSeries
	ts.SampleOnce()
	ts.Start(time.Millisecond)
	ts.Stop()
	ts.SetOnSample(nil)
	if ts.Running() || ts.Capacity() != 0 || ts.Windows() != 0 ||
		ts.Names() != nil || ts.Points("x", 1) != nil || ts.SeriesCount() != 0 {
		t.Error("nil TimeSeries must be inert")
	}
	if _, ok := ts.Latest("x"); ok {
		t.Error("nil Latest must report absent")
	}
	var sb strings.Builder
	if _, err := ts.WriteJSONTo(&sb, "x", 1); err != nil {
		t.Error(err)
	}
}

// TestTimeSeriesRaceWithRegistration hammers concurrent metric
// registration, metric writes, exposition, and sampling — the -race
// regression for the sampler's cached-refs path and the registry's
// read-outside-lock exposition (satellite: GaugeFunc registration vs
// Snapshot vs Counter.Inc while the sampler ticks).
func TestTimeSeriesRaceWithRegistration(t *testing.T) {
	reg := NewRegistry()
	ts := NewTimeSeries(reg, 16)
	ts.Start(100 * time.Microsecond)
	defer ts.Stop()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // writer hot path
		defer wg.Done()
		c := reg.Counter("hot")
		for {
			select {
			case <-stop:
				return
			default:
				c.Inc()
			}
		}
	}()
	wg.Add(1)
	go func() { // concurrent registration, incl. gauge funcs
		defer wg.Done()
		for i := 0; i < 64; i++ {
			i := i
			reg.Counter(name("c", i)).Inc()
			reg.GaugeFunc(name("gf", i), func() float64 { return float64(i) })
			reg.Histogram(name("h", i), nil).Observe(float64(i))
			time.Sleep(50 * time.Microsecond)
		}
	}()
	wg.Add(1)
	go func() { // scraper
		defer wg.Done()
		for i := 0; i < 200; i++ {
			reg.Snapshot()
			var sb strings.Builder
			reg.WritePromTo(&sb)
			reg.WriteJSONTo(&sb)
		}
		close(stop)
	}()
	wg.Add(1)
	go func() { // manual samples racing the background ticker
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				ts.SampleOnce()
			}
		}
	}()
	wg.Wait()
	if ts.SeriesCount() == 0 {
		t.Fatal("no series sampled")
	}
}

func name(prefix string, i int) string {
	return prefix + "." + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26))
}
