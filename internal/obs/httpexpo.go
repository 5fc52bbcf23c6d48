package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
)

// Telemetry bundles what one process can only show over HTTP behind a
// single handler — the metric exposition a scraper reads, the sampled
// time series, exported traces and pprof; everything SQL can answer is
// a system.* table instead. The monitoring plane lives entirely off the
// request hot path (Baihe's separation-of-concerns rule): handlers only
// read atomics, ring copies, and cached series, never engine locks.
//
// Endpoints:
//
//	/metrics              Prometheus-style text (?format=json for JSON)
//	/timeseries           JSON series index {series, windows, capacity}
//	/timeseries?name=N&window=K  last K points of series N
//	/traces               exported span trees as a JSON array
//	/debug/pprof/*        the standard Go profiling endpoints
//
// Any field may be nil; the corresponding endpoint degrades to an empty
// document. Telemetry is itself an http.Handler.
type Telemetry struct {
	Registry *Registry
	Series   *TimeSeries
	Tracer   *Tracer

	once sync.Once
	mux  *http.ServeMux
}

// ServeHTTP implements http.Handler, routing to the telemetry
// endpoints above.
func (t *Telemetry) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t.once.Do(t.buildMux)
	t.mux.ServeHTTP(w, r)
}

func (t *Telemetry) buildMux() {
	mux := http.NewServeMux()
	mux.HandleFunc("/", t.handleIndex)
	mux.HandleFunc("/metrics", t.handleMetrics)
	mux.HandleFunc("/timeseries", t.handleTimeseries)
	mux.HandleFunc("/traces", t.handleTraces)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	t.mux = mux
}

func (t *Telemetry) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, `aidb telemetry
/metrics       Prometheus text (?format=json)
/timeseries    series index; ?name=&window= for points
/traces        exported span trees (JSON)
/debug/pprof/  Go profiling
statements, metrics, alerts: SELECT ... FROM system.*
`)
}

func (t *Telemetry) handleMetrics(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Query().Get("format") {
	case "json":
		w.Header().Set("Content-Type", "application/json")
		t.Registry.WriteJSONTo(w)
	default:
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		t.Registry.WritePromTo(w)
	}
}

func (t *Telemetry) handleTimeseries(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	name := r.URL.Query().Get("name")
	if name == "" {
		names := t.Series.Names()
		if names == nil {
			names = []string{}
		}
		buf, _ := json.MarshalIndent(struct {
			Series   []string `json:"series"`
			Windows  uint64   `json:"windows"`
			Capacity int      `json:"capacity"`
		}{names, t.Series.Windows(), t.Series.Capacity()}, "", "  ")
		w.Write(append(buf, '\n'))
		return
	}
	n, _ := strconv.Atoi(r.URL.Query().Get("window"))
	t.Series.WriteJSONTo(w, name, n)
}

func (t *Telemetry) handleTraces(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	exports := t.Tracer.Exports()
	if exports == nil {
		exports = []SpanExport{}
	}
	buf, err := json.MarshalIndent(exports, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Write(append(buf, '\n'))
}

// WritePromTo renders the registry in the Prometheus text exposition
// format: names are sanitized to [a-zA-Z0-9_] (dots become
// underscores), counters and gauges are scalars with a # TYPE comment,
// and histograms render as a summary (quantile-labelled lines plus
// _sum/_count). Values are read outside the registry lock. A nil
// registry writes a disabled marker.
func (r *Registry) WritePromTo(w io.Writer) (int64, error) {
	if r == nil {
		n, err := io.WriteString(w, "# obs: registry disabled\n")
		return int64(n), err
	}
	var total int64
	write := func(s string) error {
		n, err := io.WriteString(w, s)
		total += int64(n)
		return err
	}
	// Two dotted names may sanitize to the same family ("a.b" and
	// "a_b"); the format forbids duplicate # TYPE lines, so collisions
	// get a numeric suffix instead of corrupting the exposition.
	seen := make(map[string]int)
	for _, m := range r.refs() {
		name := promName(m.name)
		if n := seen[name]; n > 0 {
			seen[name] = n + 1
			name = fmt.Sprintf("%s_%d", name, n)
		} else {
			seen[name] = 1
		}
		var err error
		switch {
		case m.c != nil:
			err = write(fmt.Sprintf("# TYPE %s counter\n%s %d\n", name, name, m.c.Value()))
		case m.g != nil:
			err = write(fmt.Sprintf("# TYPE %s gauge\n%s %s\n", name, name, promNum(m.g.Value())))
		case m.fn != nil:
			err = write(fmt.Sprintf("# TYPE %s gauge\n%s %s\n", name, name, promNum(m.fn())))
		case m.h != nil:
			s := m.h.Snapshot()
			err = write(fmt.Sprintf("# TYPE %s summary\n"+
				"%s{quantile=\"0.5\"} %s\n%s{quantile=\"0.95\"} %s\n%s{quantile=\"0.99\"} %s\n"+
				"%s_sum %s\n%s_count %d\n",
				name,
				name, promNum(s.P50), name, promNum(s.P95), name, promNum(s.P99),
				name, promNum(s.Sum), name, s.Count))
		}
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// promName sanitizes a dotted metric name into a Prometheus-legal one.
func promName(name string) string {
	var sb strings.Builder
	sb.Grow(len(name))
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
			sb.WriteRune(r)
		case r >= '0' && r <= '9' && i > 0:
			sb.WriteRune(r)
		default:
			sb.WriteByte('_')
		}
	}
	return sb.String()
}

// promNum formats a float for the Prometheus text format (NaN and Inf
// are legal there, unlike JSON).
func promNum(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
