package obs

import (
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a.b")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("a.b") != c {
		t.Fatal("Counter is not idempotent per name")
	}
	g := r.Gauge("g")
	g.Set(2.5)
	if got := g.Value(); got != 2.5 {
		t.Fatalf("gauge = %g, want 2.5", got)
	}
	r.GaugeFunc("fn", func() float64 { return 7 })
	snap := r.Snapshot()
	if snap["a.b"] != 5 || snap["g"] != 2.5 || snap["fn"] != 7 {
		t.Fatalf("snapshot = %v", snap)
	}
}

func TestNilRegistryAndMetricsAreSafe(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Inc()
	c.Add(10)
	if c.Value() != 0 {
		t.Fatal("nil counter should stay 0")
	}
	r.Gauge("g").Set(1)
	r.Histogram("h", nil).Observe(3)
	r.GaugeFunc("f", func() float64 { return 1 })
	if r.Snapshot() != nil {
		t.Fatal("nil registry snapshot should be nil")
	}
	var sb strings.Builder
	if _, err := r.WritePromTo(&sb); err != nil {
		t.Fatal(err)
	}
	if _, err := r.WriteJSONTo(&sb); err != nil {
		t.Fatal(err)
	}
	var tr *Tracer
	sp := tr.Start("q")
	sp.SetTag("k", "v")
	sp.Child("c").Finish()
	sp.Finish()
	if sp != nil || tr.Last() != nil {
		t.Fatal("nil tracer should produce nil spans")
	}
}

func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []float64{10, 100, 1000})
	for i := 0; i < 90; i++ {
		h.Observe(5) // first bucket
	}
	for i := 0; i < 10; i++ {
		h.Observe(500) // third bucket
	}
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count = %d, want 100", s.Count)
	}
	if want := 90*5.0 + 10*500.0; math.Abs(s.Sum-want) > 1e-9 {
		t.Fatalf("sum = %g, want %g", s.Sum, want)
	}
	if s.P50 > 10 {
		t.Fatalf("p50 = %g, want <= 10", s.P50)
	}
	if s.P95 <= 100 || s.P95 > 1000 {
		t.Fatalf("p95 = %g, want in (100, 1000]", s.P95)
	}
	if s.P99 <= 100 || s.P99 > 1000 {
		t.Fatalf("p99 = %g, want in (100, 1000]", s.P99)
	}
	snap := r.Snapshot()
	if snap["lat.p50"] != s.P50 || snap["lat.p95"] != s.P95 || snap["lat.p99"] != s.P99 {
		t.Fatalf("registry snapshot quantiles %v, histogram %+v", snap, s)
	}
	// Overflow bucket.
	h.Observe(5000)
	if got := h.Snapshot().BucketCounts[3]; got != 1 {
		t.Fatalf("overflow bucket = %d, want 1", got)
	}
}

// TestHistogramConcurrentObserve is the satellite guarantee: concurrent
// Observe from 8 goroutines never loses a count (run under -race in CI).
func TestHistogramConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("conc", []float64{1, 2, 4, 8, 16, 32})
	c := r.Counter("conc.ops")
	const goroutines, perG = 8, 20000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h.Observe(float64(i % 40))
				c.Inc()
			}
		}(g)
	}
	wg.Wait()
	s := h.Snapshot()
	if want := uint64(goroutines * perG); s.Count != want {
		t.Fatalf("histogram lost counts: %d, want %d", s.Count, want)
	}
	if want := uint64(goroutines * perG); c.Value() != want {
		t.Fatalf("counter lost counts: %d, want %d", c.Value(), want)
	}
	// Sum must equal goroutines * sum(i%40 for i in [0,perG)).
	var per float64
	for i := 0; i < perG; i++ {
		per += float64(i % 40)
	}
	if want := per * goroutines; math.Abs(s.Sum-want) > 1e-6 {
		t.Fatalf("histogram lost sum: %g, want %g", s.Sum, want)
	}
}

// TestDisabledOverheadNanos is the satellite bound: a disabled (nil)
// registry must add <5ns/op on the exec hot path's per-event calls.
// Timing noise is handled by taking the best of several benchmark runs;
// a nil check plus predictable branch is well under 1ns on any hardware
// this repo targets.
func TestDisabledOverheadNanos(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	if raceEnabled {
		t.Skip("race-detector instrumentation dominates the nanosecond bound")
	}
	var r *Registry
	c := r.Counter("disabled")
	h := r.Histogram("disabled.h", nil)
	best := math.Inf(1)
	for attempt := 0; attempt < 3; attempt++ {
		res := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c.Add(uint64(i))
				h.Observe(float64(i))
			}
		})
		if ns := float64(res.NsPerOp()); ns < best {
			best = ns
		}
	}
	// Two disabled calls per iteration must stay under the 5ns budget.
	if best >= 5 {
		t.Fatalf("disabled obs calls cost %.1fns/op, want <5ns", best)
	}
}

func TestWriteToExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("z.count").Add(3)
	r.Gauge("a.gauge").Set(1.5)
	r.Histogram("m.h", []float64{1, 10}).Observe(2)
	var sb strings.Builder
	if _, err := r.WritePromTo(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	// Sorted by name: a.gauge, m.h, z.count.
	if types := promTypes(out); strings.Join(types, ",") != "a_gauge gauge,m_h summary,z_count counter" {
		t.Fatalf("unexpected families %v:\n%s", types, out)
	}
	for _, want := range []string{"\na_gauge 1.5\n", "\nm_h_count 1\n", "\nz_count 3\n"} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	var js strings.Builder
	if _, err := r.WriteJSONTo(&js); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"z.count": 3`, `"a.gauge": 1.5`, `"m.h": {"count":1`} {
		if !strings.Contains(js.String(), want) {
			t.Fatalf("JSON missing %q:\n%s", want, js.String())
		}
	}
}

// TestHistogramQuantileOverflowClamp is the regression test for the
// overflow-bucket bug: quantiles that land past the largest bucket
// boundary must clamp to the maximum observed value instead of
// reporting the bucket's (unbounded) upper edge.
func TestHistogramQuantileOverflowClamp(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []float64{1, 10, 100})
	// Everything lands in the overflow bucket (> 100).
	for i := 0; i < 50; i++ {
		h.Observe(250)
	}
	s := h.Snapshot()
	if s.Max != 250 {
		t.Fatalf("snapshot max = %v, want 250", s.Max)
	}
	for _, q := range []float64{0.5, 0.95, 0.99, 1} {
		if got := h.Quantile(q); got != 250 {
			t.Errorf("Quantile(%v) = %v, want clamp to max observed 250", q, got)
		}
	}
	// Mixed case: the interpolated tail quantile must never exceed the
	// observed max even when in-range buckets are populated.
	h2 := r.Histogram("lat2", []float64{1, 10, 100})
	for i := 0; i < 90; i++ {
		h2.Observe(5)
	}
	for i := 0; i < 10; i++ {
		h2.Observe(120)
	}
	if got := h2.Quantile(0.99); got > 120 {
		t.Errorf("P99 = %v exceeds max observed 120", got)
	}
}

// TestExpositionSorted is the determinism regression test for CI
// artifact diffs: text and JSON expositions must list metrics in
// sorted name order no matter the registration order.
func TestExpositionSorted(t *testing.T) {
	r := NewRegistry()
	for _, name := range []string{"zeta.z", "alpha.a", "mid.m", "beta.b"} {
		r.Counter(name).Inc()
	}
	var txt strings.Builder
	if _, err := r.WritePromTo(&txt); err != nil {
		t.Fatal(err)
	}
	if names := promTypes(txt.String()); len(names) != 4 || !sortedStrings(names) {
		t.Errorf("text exposition not sorted: %v", names)
	}

	var js strings.Builder
	if _, err := r.WriteJSONTo(&js); err != nil {
		t.Fatal(err)
	}
	out := js.String()
	order := []string{"alpha.a", "beta.b", "mid.m", "zeta.z"}
	prev := -1
	for _, n := range order {
		idx := strings.Index(out, `"`+n+`"`)
		if idx < 0 {
			t.Fatalf("JSON exposition missing %q:\n%s", n, out)
		}
		if idx < prev {
			t.Errorf("JSON exposition out of order at %q:\n%s", n, out)
		}
		prev = idx
	}
	// Identical registries must produce byte-identical dumps.
	var js2 strings.Builder
	if _, err := r.WriteJSONTo(&js2); err != nil {
		t.Fatal(err)
	}
	if js2.String() != out {
		t.Error("JSON exposition not deterministic across calls")
	}
}

// promTypes lists the "name type" of every # TYPE line of a Prometheus
// exposition, in order.
func promTypes(out string) []string {
	var types []string
	for _, ln := range strings.Split(out, "\n") {
		if name, ok := strings.CutPrefix(ln, "# TYPE "); ok {
			types = append(types, name)
		}
	}
	return types
}

func sortedStrings(s []string) bool {
	for i := 1; i < len(s); i++ {
		if s[i] < s[i-1] {
			return false
		}
	}
	return true
}

func TestSpanTree(t *testing.T) {
	tr := NewTracer(2)
	for i := 0; i < 3; i++ {
		sp := tr.Start("query")
		sp.SetTag("stmt", "SELECT")
		child := sp.Child("parse")
		child.Finish()
		sp.Child("exec").Finish()
		sp.Finish()
	}
	if got := len(tr.Roots()); got != 2 {
		t.Fatalf("ring kept %d roots, want 2", got)
	}
	d := tr.Last().Dump()
	for _, want := range []string{"query", "{stmt=SELECT}", "  parse", "  exec"} {
		if !strings.Contains(d, want) {
			t.Fatalf("dump missing %q:\n%s", want, d)
		}
	}
}

// TestTracerOneRing: Roots and Exports are two views of one ring — the
// last keep spans and the last EnableExport(n) of them — and an export
// is the span's JSON-ready copy, built when asked for.
func TestTracerOneRing(t *testing.T) {
	tr := NewTracer(2)
	finish := func(i int) {
		sp := tr.Start("query")
		sp.SetTag("i", strconv.Itoa(i))
		sp.SetTag("i", strconv.Itoa(i)) // last write wins in the export's map
		sp.Child("exec").Finish()
		sp.Finish()
	}
	if tr.Exports() != nil {
		t.Fatal("exports before EnableExport")
	}
	finish(0)
	finish(1)
	finish(2)
	tr.EnableExport(4) // keeps what the ring held: spans 1 and 2
	for i := 3; i < 9; i++ {
		finish(i)
	}
	tagOf := func(e SpanExport) string { return e.Tags["i"] }
	var got []string
	for _, e := range tr.Exports() {
		got = append(got, tagOf(e))
		if e.Name != "query" || len(e.Children) != 1 || e.Children[0].Name != "exec" || e.DurationNs <= 0 {
			t.Errorf("export %+v", e)
		}
	}
	if strings.Join(got, ",") != "5,6,7,8" {
		t.Errorf("exports hold spans %v, want the last four: 5,6,7,8", got)
	}
	roots := tr.Roots()
	if len(roots) != 2 || tagOf(roots[0].Export()) != "7" || tagOf(roots[1].Export()) != "8" || tr.Last() != roots[1] {
		t.Errorf("Roots = %d spans ending %v, want the last two: 7,8", len(roots), tagOf(tr.Last().Export()))
	}

	early := NewTracer(4)
	early.EnableExport(2)
	sp := early.Start("only")
	sp.Finish()
	if e := early.Exports(); len(e) != 1 || e[0].Name != "only" || e[0].Tags != nil {
		t.Errorf("exports of a ring not yet full: %+v", e)
	}
}

// BenchmarkSpanFinish is what tracing costs a statement: a root span
// with three tags and two children, started and filed. No map, and no
// copy for an export nobody has asked for.
func BenchmarkSpanFinish(b *testing.B) {
	tr := NewTracer(16)
	tr.EnableExport(64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := tr.Start("query")
		sp.SetTag("stmt", "SELECT")
		sp.SetTag("plancache", "hit")
		sp.Child("plan").Finish()
		sp.SetTag("plan", "nodes=3,depth=3")
		sp.Child("exec").Finish()
		sp.Finish()
	}
}

func BenchmarkCounterAdd(b *testing.B) {
	c := NewRegistry().Counter("bench")
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("bench", DefBuckets)
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			h.Observe(float64(i))
			i++
		}
	})
}

func BenchmarkDisabledCounterAdd(b *testing.B) {
	var r *Registry
	c := r.Counter("bench")
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}
