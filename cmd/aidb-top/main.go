// Command aidb-top is a live terminal dashboard over an aidb telemetry
// endpoint (aidb-repl -serve / aidb-serve -http / db.Serve). It polls
// /timeseries and renders one sparkline row per metric — the operator's
// at-a-glance view of the monitoring plane.
//
// Usage:
//
//	aidb-top -addr localhost:8080
//	aidb-top -addr localhost:8080 -metrics exec.queries,admission.shed
//	aidb-top -addr localhost:8080 -n 1       # one frame, no screen clear
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"
)

// defaultMetrics is the headline KPI set shown when -metrics is not
// given; series absent from the server are skipped.
var defaultMetrics = []string{
	"exec.queries",
	"exec.query_errors",
	"exec.query_latency_ns.p95",
	"exec.rows_scanned",
	"admission.active",
	"admission.queue_depth",
	"admission.shed",
	"chaos.fires.total",
}

// sparks are the eight-level bar glyphs, lowest to highest.
var sparks = []rune("▁▂▃▄▅▆▇█")

// point mirrors obs.Point's JSON wire shape.
type point struct {
	T time.Time `json:"t"`
	V float64   `json:"v"`
}

// seriesDoc mirrors the /timeseries?name= response.
type seriesDoc struct {
	Name   string  `json:"name"`
	Points []point `json:"points"`
}

// indexDoc mirrors the bare /timeseries response.
type indexDoc struct {
	Series   []string `json:"series"`
	Windows  uint64   `json:"windows"`
	Capacity int      `json:"capacity"`
}

func getJSON(client *http.Client, url string, into any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

// sparkline renders vals as bar glyphs scaled to the window's own
// [min, max] range (a flat series renders as all-low bars).
func sparkline(vals []float64) string {
	if len(vals) == 0 {
		return ""
	}
	lo, hi := vals[0], vals[0]
	for _, v := range vals {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	var sb strings.Builder
	for _, v := range vals {
		i := 0
		if hi > lo {
			i = int((v - lo) / (hi - lo) * float64(len(sparks)-1))
		}
		sb.WriteRune(sparks[i])
	}
	return sb.String()
}

// fmtVal renders a metric value compactly (integers without decimals,
// large magnitudes in k/M/G).
func fmtVal(v float64) string {
	abs := v
	if abs < 0 {
		abs = -abs
	}
	switch {
	case abs >= 1e9:
		return fmt.Sprintf("%.2fG", v/1e9)
	case abs >= 1e6:
		return fmt.Sprintf("%.2fM", v/1e6)
	case abs >= 1e4:
		return fmt.Sprintf("%.1fk", v/1e3)
	case v == float64(int64(v)):
		return fmt.Sprintf("%d", int64(v))
	default:
		return fmt.Sprintf("%.3g", v)
	}
}

// frame fetches and renders one dashboard frame.
func frame(client *http.Client, base string, metrics []string, window int) (string, error) {
	var idx indexDoc
	if err := getJSON(client, base+"/timeseries", &idx); err != nil {
		return "", err
	}
	have := make(map[string]bool, len(idx.Series))
	for _, s := range idx.Series {
		have[s] = true
	}
	show := metrics
	if len(show) == 0 {
		// No explicit set and no headline series present yet: show
		// whatever the server has, sorted.
		for _, m := range defaultMetrics {
			if have[m] {
				show = append(show, m)
			}
		}
		if len(show) == 0 {
			show = append([]string(nil), idx.Series...)
			sort.Strings(show)
			if len(show) > 16 {
				show = show[:16]
			}
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "aidb-top  %s  window %d  %d series  %s\n\n",
		base, idx.Windows, len(idx.Series), time.Now().Format("15:04:05"))
	nameW := 4
	for _, m := range show {
		if len(m) > nameW {
			nameW = len(m)
		}
	}
	fmt.Fprintf(&sb, "%-*s  %8s  %s\n", nameW, "name", "last", "history")
	for _, m := range show {
		var doc seriesDoc
		if err := getJSON(client, base+"/timeseries?name="+m+"&window="+fmt.Sprint(window), &doc); err != nil {
			return "", err
		}
		vals := make([]float64, len(doc.Points))
		for i, p := range doc.Points {
			vals[i] = p.V
		}
		last := "-"
		if len(vals) > 0 {
			last = fmtVal(vals[len(vals)-1])
		}
		fmt.Fprintf(&sb, "%-*s  %8s  %s\n", nameW, m, last, sparkline(vals))
	}
	return sb.String(), nil
}

func main() {
	var (
		addr     = flag.String("addr", "localhost:8080", "telemetry server host:port")
		interval = flag.Duration("interval", time.Second, "poll interval")
		n        = flag.Int("n", 0, "number of frames to draw (0 = until interrupted)")
		window   = flag.Int("window", 60, "points of history per sparkline")
		metrics  = flag.String("metrics", "", "comma-separated series to show (default: headline KPI set)")
	)
	flag.Parse()
	var show []string
	if *metrics != "" {
		for _, m := range strings.Split(*metrics, ",") {
			if m = strings.TrimSpace(m); m != "" {
				show = append(show, m)
			}
		}
	}
	base := "http://" + *addr
	client := &http.Client{Timeout: 5 * time.Second}
	clear := *n != 1
	for i := 0; *n <= 0 || i < *n; i++ {
		out, err := frame(client, base, show, *window)
		if err != nil {
			fmt.Fprintln(os.Stderr, "aidb-top:", err)
			os.Exit(1)
		}
		if clear {
			fmt.Print("\x1b[H\x1b[2J")
		}
		fmt.Print(out)
		if *n > 0 && i == *n-1 {
			break
		}
		time.Sleep(*interval)
	}
}
