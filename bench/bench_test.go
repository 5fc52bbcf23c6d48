package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// take returns the next n statements' texts and gaps, one per line.
func (s *stream) take(n int) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		st := s.next()
		fmt.Fprintf(&sb, "%d %s\n", st.gap, st.text)
	}
	return sb.String()
}

func TestStreamsRepeat(t *testing.T) {
	d := dataset{seed: 7, sc: quickScale}
	for _, w := range workloads {
		for conn := 0; conn < numConns; conn++ {
			a := newStream(w, d, conn).take(400)
			if b := newStream(w, d, conn).take(400); a != b {
				t.Errorf("%s conn %d: same seed, different statements or arrival gaps", w.name, conn)
			}
			// analytic_scan's statements are fixed; there the seed
			// reaches only the data.
			other := dataset{seed: 8, sc: quickScale}
			if w.name != "analytic_scan" && a == newStream(w, other, conn).take(400) {
				t.Errorf("%s conn %d: seed does not reach the stream", w.name, conn)
			}
		}
		if newStream(w, d, 0).take(50) == newStream(w, d, 1).take(50) {
			t.Errorf("%s: both connections send the same stream", w.name)
		}
	}
}

func TestOpenLoopSchedule(t *testing.T) {
	w := findWorkload("open_mix")
	s := newStream(w, dataset{seed: 3, sc: quickScale}, 0)
	var at time.Duration
	var analyticAt []time.Duration
	n := 0
	for at < 10*time.Second {
		st := s.next()
		if st.gap < 0 {
			t.Fatalf("negative gap %v", st.gap)
		}
		at += st.gap
		n++
		if st.shape != shPoint && st.shape != shRange {
			analyticAt = append(analyticAt, at)
		}
	}
	// Per connection: half of the Poisson points, and exactly half of
	// the analytic statements, never closer than half a period.
	if want := 10 * w.pointRate / numConns; math.Abs(float64(n)-want) > 0.05*want {
		t.Errorf("%d arrivals in 10s, want about %.0f", n, want)
	}
	if want := int(10 * w.analyticRate / numConns); len(analyticAt) != want {
		t.Errorf("%d analytic arrivals in 10s, want %d", len(analyticAt), want)
	}
	for i := 1; i < len(analyticAt); i++ {
		if gap := analyticAt[i] - analyticAt[i-1]; gap < time.Duration(float64(time.Second)/w.analyticRate/2) {
			t.Errorf("analytic arrivals %v apart", gap)
		}
	}
}

func TestZipfRankFrequencies(t *testing.T) {
	const n, draws = 1000, 400000
	z := newZipf(n, 0.99, 1)
	r := rng{s: 9}
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[z.rank(r.float())]++
	}
	h := 0.0
	for k := 1; k <= n; k++ {
		h += 1 / math.Pow(float64(k), 0.99)
	}
	for _, k := range []int{0, 1, 9, 99} {
		want := draws / math.Pow(float64(k+1), 0.99) / h
		if got := float64(counts[k]); math.Abs(got-want) > 0.1*want+30 {
			t.Errorf("rank %d drawn %v times, want about %.0f", k, got, want)
		}
	}
	seen := map[int32]bool{}
	for _, k := range z.keys {
		seen[k] = true
	}
	if len(seen) != n {
		t.Errorf("rank-to-key map covers %d of %d keys", len(seen), n)
	}
}

func TestPercentiles(t *testing.T) {
	var s []float64
	for i := 1; i <= 100; i++ {
		s = append(s, float64(i))
	}
	for p, want := range map[float64]float64{50: 50, 95: 95, 99: 99, 100: 100, 0.5: 1} {
		if got := percentile(s, p); got != want {
			t.Errorf("p%v of 1..100 = %v, want %v", p, got, want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of nothing should be NaN")
	}
	// Ten samples must lie beyond the percentile.
	for n, want := range map[int]float64{5: 0, 19: 0, 20: 50, 40: 75, 100: 90, 200: 95, 1000: 99, 10000: 99.9} {
		if got := highestSupported(n); got != want {
			t.Errorf("highestSupported(%d) = %v, want %v", n, got, want)
		}
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles(s[:10])
	if q1 != 2.75 || q3 != 8.25 || median(s[:10]) != 5.5 {
		t.Errorf("quartiles of 1..10 = %v, %v, median %v", q1, q3, median(s[:10]))
	}
	if got := spread(s[:10]); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread of 1..10 = %v, want 1", got)
	}
}

func TestReadReply(t *testing.T) {
	read := func(s string) (reply, error) {
		var rep reply
		err := readReply(bufio.NewReader(strings.NewReader(s)), &rep)
		return rep, err
	}
	rep, err := read("id  age  city\n--  ---  ----\n7   31   ams \n8   2    ber \n(2 rows)\n.\n")
	if err != nil || len(rep.rows) != 2 || rep.rows[1][2] != "ber" || rep.ok || rep.errMsg != "" {
		t.Errorf("table: %+v, %v", rep, err)
	}
	if rep.bytes != len("id  age  city\n--  ---  ----\n7   31   ams \n8   2    ber \n(2 rows)\n.\n") {
		t.Errorf("table: %d bytes counted", rep.bytes)
	}
	if rep, err = read("OK\n.\n"); err != nil || !rep.ok || len(rep.rows) != 0 {
		t.Errorf("OK: %+v, %v", rep, err)
	}
	if rep, err = read("ERR governance: admission shed: deadline 1ms away, queue depth 2\n.\n"); err != nil || classifyErr(rep.errMsg) != failShed {
		t.Errorf("ERR: %+v, %v", rep, err)
	}
	if rep, err = read("COUNT(*)\n--------\n(0 rows)\n.\n"); err != nil || len(rep.rows) != 0 || rep.ok {
		t.Errorf("empty table: %+v, %v", rep, err)
	}
	for _, bad := range []string{
		"id\n--\n1 \n(2 rows)\n.\n", // count does not match
		"id\n--\n1 \n.\n",           // no count
		"OK\nmore\n.\n",             // text after a one-line answer
		"id\n--\n1 \n(1 rows)\n",    // connection ends inside a reply
	} {
		if _, err := read(bad); err == nil {
			t.Errorf("%q parsed", bad)
		}
	}
	for msg, want := range map[string]failClass{
		"governance: admission shed: context deadline exceeded": failShed,
		"context deadline exceeded":                             failTimeout,
		"catalog: table \"x\" does not exist":                   failOther,
	} {
		if got := classifyErr(msg); got != want {
			t.Errorf("classifyErr(%q) = %s, want %s", msg, failNames[got], failNames[want])
		}
	}
}

func TestOracleRejectsWrongAnswers(t *testing.T) {
	d := dataset{seed: 5, sc: quickScale}
	o, err := newOracle(d, findWorkload("analytic_scan"))
	if err != nil {
		t.Fatal(err)
	}
	point := stmt{shape: shPoint, key: 12}
	good := reply{rows: [][]string{{"12", itoa(d.userAge(12)), d.userCity(12)}}}
	if err := o.check(&point, &good); err != nil {
		t.Errorf("right answer rejected: %v", err)
	}
	bad := reply{rows: [][]string{{"12", itoa(d.userAge(12) + 1), d.userCity(12)}}}
	if o.check(&point, &bad) == nil {
		t.Error("wrong age accepted")
	}
	if o.check(&point, &reply{}) == nil {
		t.Error("missing row accepted")
	}
	count := stmt{shape: shFilterCount}
	if o.check(&count, &reply{rows: [][]string{{itoa(o.filterCount)}}}) != nil {
		t.Error("right count rejected")
	}
	if o.check(&count, &reply{rows: [][]string{{itoa(o.filterCount + 1)}}}) == nil {
		t.Error("wrong count accepted")
	}
}

func itoa(n int64) string { return strconv.FormatInt(n, 10) }

func TestVerdict(t *testing.T) {
	lower := specMetric{Name: "latency_p50_us", Better: "lower", Bound: 0.1}
	higher := specMetric{Name: "throughput_stmts_s", Better: "higher", Bound: 0.1}
	steady := []float64{100, 101, 99, 100, 100.5}
	scale := func(f float64) []float64 {
		var out []float64
		for _, v := range steady {
			out = append(out, v*f)
		}
		return out
	}
	for _, c := range []struct {
		sm       specMetric
		old, new []float64
		want     string
	}{
		{lower, steady, scale(1.05), "ok"},
		{lower, steady, scale(1.2), "regressed"},
		{lower, steady, scale(0.5), "ok"},
		{higher, steady, scale(0.8), "regressed"},
		{higher, steady, scale(1.5), "ok"},
		{lower, steady, []float64{80, 100, 120, 140, 160}, "unresolved"},
	} {
		if _, got := verdict(c.sm, c.old, c.new); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.sm.Name, c.old, c.new, got, c.want)
		}
	}
}

// TestProbeSlowdown: an interval's slowdown is the mean of the samples
// taken in it over the reference, to the power hostExponent; the nearest
// sample when it holds none, and 1 when nothing probes.
func TestProbeSlowdown(t *testing.T) {
	t0 := time.Now()
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	p := &prober{samples: []probeSample{{at(0), hostRefNs}, {at(50), 2 * hostRefNs}, {at(100), 3 * hostRefNs}, {at(150), hostRefNs}}}
	for _, c := range []struct {
		from, to int
		want     float64 // mean probe time over hostRefNs
	}{
		{0, 150, 1.75},
		{40, 110, 2.5},
		{60, 90, 2}, // no sample inside: at(50) is nearest to the start
		{500, 600, 1},
	} {
		if got, want := p.slowdown(at(c.from), at(c.to)), math.Pow(c.want, hostExponent); math.Abs(got-want) > 1e-9 {
			t.Errorf("slowdown(%d..%d ms) = %v, want %v", c.from, c.to, got, want)
		}
	}
	if got := (*prober)(nil).slowdown(at(0), at(1)); got != 1 {
		t.Errorf("no prober: slowdown %v, want 1", got)
	}
	live := startProber()
	time.Sleep(3 * probeInterval)
	live.stop()
	if got := live.slowdown(t0, time.Now()); got < 0.2 || got > 20 {
		t.Errorf("live probe: slowdown %v; hostRefNs is off by an order of magnitude on this host", got)
	}
}

// TestQuickEndToEnd is the -quick pass: every workload against a real
// aidb-serve with 2000-row tables and a one-second window, untraced and
// traced, and every metric BENCHMARK.json names must come out finite.
func TestQuickEndToEnd(t *testing.T) {
	// The harness works from the repository root, like `go run ./bench`.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(".."); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
	sp, err := readSpec()
	if err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(t.TempDir(), "aidb-serve")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/aidb-serve").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	probe := startProber()
	defer probe.stop()
	// The subtests run side by side; the parent returns (and restores
	// the directory) only after they end.
	t.Run("workloads", func(t *testing.T) {
		for _, w := range workloads {
			t.Run(w.name, func(t *testing.T) {
				t.Parallel()
				cfg := newConfig(42, time.Second, true, bin)
				cfg.w, cfg.probe = w, probe
				res, err := runWorkload(&cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !res.correct || res.attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d: %s", res.correct, res.attempted, res.failed, res.note)
				}
				layers, spans, err := traceWorkload(&cfg)
				if err != nil {
					t.Fatal(err)
				}
				if len(spans) == 0 {
					t.Error("the traced run recorded no span")
				}
				got := map[string]float64{}
				for _, m := range append(append(res.endToEnd, res.layers...), layers...) {
					got[m.name] = m.value
				}
				for _, sm := range append(append([]specMetric{}, sp.EndToEnd...), sp.PerLayer...) {
					v, ok := got[sm.Name]
					if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
						t.Errorf("%s = %v (present: %v)", sm.Name, v, ok)
					}
				}
				for _, sm := range sp.EndToEnd {
					if got[sm.Name] <= 0 {
						t.Errorf("end-to-end metric %s = %v; it must never be 0", sm.Name, got[sm.Name])
					}
				}
			})
		}
	})
}
