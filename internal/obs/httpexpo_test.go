package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// serveTelemetry serves a Telemetry handler on a loopback port over a
// small populated registry and returns its base URL.
func serveTelemetry(t *testing.T) (string, *Registry, *TimeSeries) {
	t.Helper()
	reg := NewRegistry()
	reg.Counter("exec.queries").Add(7)
	reg.Gauge("pool.size").Set(3)
	reg.Histogram("exec.latency_ns", nil).Observe(1500)
	reg.GaugeFunc("up", func() float64 { return 1 })
	ts := NewTimeSeries(reg, 16)
	ts.SampleOnce()
	reg.Counter("exec.queries").Add(5)
	ts.SampleOnce()

	tr := NewTracer(4)
	tr.EnableExport(4)
	sp := tr.Start("query")
	sp.Child("parse").Finish()
	sp.SetTag("stmt", "SELECT")
	sp.Finish()

	srv := httptest.NewServer(&Telemetry{Registry: reg, Series: ts, Tracer: tr})
	t.Cleanup(srv.Close)
	return srv.URL, reg, ts
}

func get(t *testing.T, url string) (string, string) {
	t.Helper()
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s\n%s", url, resp.Status, body)
	}
	return string(body), resp.Header.Get("Content-Type")
}

func TestTelemetryMetricsEndpoint(t *testing.T) {
	base, _, _ := serveTelemetry(t)
	prom, ct := get(t, base+"/metrics")
	if !strings.Contains(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	for _, want := range []string{
		"# TYPE exec_queries counter", "exec_queries 12",
		"# TYPE pool_size gauge", "pool_size 3",
		"# TYPE exec_latency_ns summary", `exec_latency_ns{quantile="0.99"}`,
		"exec_latency_ns_sum 1500", "exec_latency_ns_count 1",
		"# TYPE up gauge",
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("prometheus exposition missing %q:\n%s", want, prom)
		}
	}
	jsonBody, ct := get(t, base+"/metrics?format=json")
	if !strings.Contains(ct, "application/json") {
		t.Errorf("json content type = %q", ct)
	}
	var doc map[string]any
	if err := json.Unmarshal([]byte(jsonBody), &doc); err != nil {
		t.Fatalf("invalid JSON exposition: %v", err)
	}
	if doc["exec.queries"] != float64(12) {
		t.Errorf("exec.queries = %v, want 12", doc["exec.queries"])
	}
}

func TestTelemetryTimeseriesEndpoint(t *testing.T) {
	base, _, ts := serveTelemetry(t)
	idx, _ := get(t, base+"/timeseries")
	var index struct {
		Series   []string `json:"series"`
		Windows  uint64   `json:"windows"`
		Capacity int      `json:"capacity"`
	}
	if err := json.Unmarshal([]byte(idx), &index); err != nil {
		t.Fatal(err)
	}
	if index.Windows != ts.Windows() || index.Capacity != 16 {
		t.Errorf("index = %+v", index)
	}
	found := false
	for _, s := range index.Series {
		if s == "exec.queries" {
			found = true
		}
	}
	if !found {
		t.Fatalf("series index missing exec.queries: %v", index.Series)
	}
	body, _ := get(t, base+"/timeseries?name=exec.queries&window=4")
	var doc struct {
		Name   string `json:"name"`
		Points []struct {
			V float64 `json:"v"`
		} `json:"points"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Name != "exec.queries" || len(doc.Points) != 1 || doc.Points[0].V != 5 {
		t.Errorf("series doc = %+v, want one delta of 5", doc)
	}
}

// status returns the HTTP status of a GET of url.
func status(t *testing.T, url string) int {
	t.Helper()
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestTelemetrySlowlogTracesAlerts: /traces serves the exported span
// trees; the slow log is gone and alerts are system.alerts, so neither
// has an endpoint.
func TestTelemetrySlowlogTracesAlerts(t *testing.T) {
	base, _, _ := serveTelemetry(t)
	for _, p := range []string{"/slowlog", "/alerts"} {
		if code := status(t, base+p); code != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", p, code)
		}
	}
	traces, _ := get(t, base+"/traces")
	var spans []SpanExport
	if err := json.Unmarshal([]byte(traces), &spans); err != nil {
		t.Fatal(err)
	}
	if len(spans) != 1 || spans[0].Name != "query" ||
		len(spans[0].Children) != 1 || spans[0].Children[0].Name != "parse" {
		t.Errorf("traces = %+v", spans)
	}
	if spans[0].Tags["stmt"] != "SELECT" {
		t.Errorf("trace tags = %v", spans[0].Tags)
	}
}

// TestTelemetryStatementsEndpoint: statement statistics are read through
// system.statements, which the index page names; HTTP has no copy.
func TestTelemetryStatementsEndpoint(t *testing.T) {
	base, _, _ := serveTelemetry(t)
	if code := status(t, base+"/statements"); code != http.StatusNotFound {
		t.Errorf("GET /statements = %d, want 404", code)
	}
	if index, _ := get(t, base+"/"); !strings.Contains(index, "system.*") {
		t.Errorf("index page does not point at system.*:\n%s", index)
	}
}

func TestTelemetryIndexAndPprof(t *testing.T) {
	base, _, _ := serveTelemetry(t)
	index, _ := get(t, base+"/")
	if !strings.Contains(index, "/metrics") || !strings.Contains(index, "/debug/pprof/") {
		t.Errorf("index page missing endpoint list:\n%s", index)
	}
	pprof, _ := get(t, base+"/debug/pprof/cmdline")
	if len(pprof) == 0 {
		t.Error("pprof cmdline empty")
	}
	if code := status(t, base+"/nope"); code != http.StatusNotFound {
		t.Errorf("unknown path = %d, want 404", code)
	}
}

func TestTelemetryNilComponents(t *testing.T) {
	srv := httptest.NewServer(&Telemetry{})
	defer srv.Close()
	for _, p := range []string{"/metrics", "/metrics?format=json", "/timeseries",
		"/timeseries?name=x", "/traces"} {
		body, _ := get(t, srv.URL+p)
		if len(body) == 0 {
			t.Errorf("GET %s returned empty body", p)
		}
	}
}

func TestPromName(t *testing.T) {
	for in, want := range map[string]string{
		"exec.queries":       "exec_queries",
		"guard.kv.state":     "guard_kv_state",
		"9lives":             "_lives",
		"a-b c":              "a_b_c",
		"already_fine":       "already_fine",
		"exec.latency_ns.p5": "exec_latency_ns_p5",
	} {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}
