package core

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"aidb/internal/cardest"
	"aidb/internal/knob"
	"aidb/internal/ml"
	"aidb/internal/monitor"
	"aidb/internal/workload"
)

func TestOpenExecRoundTrip(t *testing.T) {
	db := Open()
	if _, err := db.Exec("CREATE TABLE t (a INT, b TEXT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO t VALUES (1, 'one'), (2, 'two')"); err != nil {
		t.Fatal(err)
	}
	res, err := db.Exec("SELECT b FROM t WHERE a = 2")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].(string) != "two" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestFormat(t *testing.T) {
	db := Open()
	db.Exec("CREATE TABLE t (a INT)")
	db.Exec("INSERT INTO t VALUES (7)")
	res, _ := db.Exec("SELECT a FROM t")
	out := Format(res)
	for _, want := range []string{"a", "7", "(1 rows)"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format output missing %q:\n%s", want, out)
		}
	}
	if Format(nil) != "OK\n" {
		t.Error("nil result should format as OK")
	}
}

func TestTuneImprovesOverDefaults(t *testing.T) {
	db := OpenSeeded(7)
	mix := knob.WorkloadMix{Write: 0.5, Scan: 0.3, Read: 0.2}
	defaultRegret := db.surface.Regret(knob.DefaultConfig(), mix)
	rep := db.Tune(mix, 250)
	if rep.RegretVsOptimal >= defaultRegret {
		t.Errorf("tuning regret %.3f should beat defaults %.3f", rep.RegretVsOptimal, defaultRegret)
	}
	if rep.RegretVsOptimal > 0.5 {
		t.Errorf("tuning regret %.3f too high at budget 250", rep.RegretVsOptimal)
	}
	if rep.Throughput <= 0 {
		t.Error("throughput should be positive")
	}
}

func TestAdviseIndexes(t *testing.T) {
	db := OpenSeeded(8)
	db.Exec("CREATE TABLE logs (user_id INT, action INT, note TEXT)")
	for i := 0; i < 50; i++ {
		db.Exec("INSERT INTO logs VALUES (1, 2, 'x')")
	}
	db.Exec("ANALYZE logs")
	// Workload hammering column 0 (user_id) with narrow predicates.
	var qs []workload.Query
	for i := 0; i < 100; i++ {
		qs = append(qs, workload.Query{Preds: []workload.Predicate{{Column: 0, Lo: 0, Hi: 3}}})
	}
	advice, err := db.AdviseIndexes("logs", qs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(advice) != 1 || advice[0].Column != "user_id" {
		t.Errorf("advice = %+v, want index on user_id", advice)
	}
}

func TestAdviseIndexesErrors(t *testing.T) {
	db := Open()
	if _, err := db.AdviseIndexes("ghost", nil, 1); err == nil {
		t.Error("missing table should fail")
	}
	db.Exec("CREATE TABLE s (only_text TEXT)")
	if _, err := db.AdviseIndexes("s", nil, 1); err == nil {
		t.Error("table with no integer columns should fail")
	}
}

func TestForecastWorkload(t *testing.T) {
	db := Open()
	series := workload.ArrivalSeries(ml.NewRNG(1), workload.Diurnal, 400, 100)
	pred, err := db.ForecastWorkload(series, 1)
	if err != nil {
		t.Fatal(err)
	}
	if pred < 0 || pred > 500 {
		t.Errorf("forecast %v implausible", pred)
	}
	if _, err := db.ForecastWorkload([]float64{1, 2}, 1); err == nil {
		t.Error("short history should fail")
	}
}

func TestDiagnose(t *testing.T) {
	db := OpenSeeded(9)
	rng := ml.NewRNG(2)
	history := monitor.GenerateIncidents(rng, 400, 0.1)
	incident := monitor.GenerateIncidents(rng, 1, 0.05)[0]
	got, err := db.Diagnose(history, incident)
	if err != nil {
		t.Fatal(err)
	}
	if got != incident.Truth {
		// Clustering is probabilistic; only fail when wildly off across
		// several trials.
		wrong := 0
		for i := 0; i < 10; i++ {
			inc := monitor.GenerateIncidents(rng, 1, 0.05)[0]
			d, err := db.Diagnose(history, inc)
			if err != nil {
				t.Fatal(err)
			}
			if d != inc.Truth {
				wrong++
			}
		}
		if wrong > 3 {
			t.Errorf("diagnosis wrong %d/10 times", wrong)
		}
	}
}

func TestEstimatorCacheCountersInMetrics(t *testing.T) {
	db := OpenSeeded(11)
	spec := workload.TableSpec{
		Name: "t",
		Rows: 1000,
		Columns: []workload.Column{
			{Name: "a", NDV: 50, CorrelatedWith: -1},
			{Name: "b", NDV: 50, CorrelatedWith: -1},
		},
	}
	base := cardest.NewMLPEstimator(ml.NewRNG(3), spec, 8)
	cache := db.NewEstimatorCache(cardest.NewFeedbackEstimator(base), 16)
	g := workload.NewQueryGen(ml.NewRNG(4), spec)
	q := g.Next()
	cache.Estimate(q)
	cache.Estimate(q)
	m := sysMetrics(t, db)
	for _, name := range []string{"cardest.cache.hits", "cardest.cache.misses", "cardest.cache.invalidations"} {
		if _, ok := m[name]; !ok {
			t.Fatalf("system.metrics missing %s: %v", name, m)
		}
	}
	if m["cardest.cache.hits"] != 1 || m["cardest.cache.misses"] != 1 {
		t.Fatalf("cache counters hits=%v misses=%v, want 1 and 1", m["cardest.cache.hits"], m["cardest.cache.misses"])
	}
}

// TestStreamingCountersInMetrics: the streaming executor's chunk
// counters and peak-bytes histogram surface through system.metrics
// after a multi-chunk query.
func TestStreamingCountersInMetrics(t *testing.T) {
	db := OpenSeeded(12)
	if _, err := db.Exec("CREATE TABLE s (a INT, b INT)"); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	sb.WriteString("INSERT INTO s VALUES ")
	for i := 0; i < 3000; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %d)", i, i%50)
	}
	if _, err := db.Exec(sb.String()); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("SELECT a FROM s WHERE b < 25"); err != nil {
		t.Fatal(err)
	}
	m := sysMetrics(t, db)
	for _, name := range []string{
		"exec.chunks_emitted",
		"exec.chunk_pool.hits",
		"exec.chunk_pool.misses",
		"exec.peak_bytes.count",
		"exec.peak_bytes.p99",
	} {
		if _, ok := m[name]; !ok {
			t.Errorf("system.metrics missing %s", name)
		}
	}
	if m["exec.chunks_emitted"] == 0 {
		t.Error("exec.chunks_emitted stayed 0 after a 3000-row query")
	}
	if m["exec.chunk_pool.misses"] == 0 {
		t.Error("exec.chunk_pool.misses stayed 0 (first gets always miss)")
	}
}

// TestScriptRunsStatementByStatement: a script is parsed one statement
// at a time as it runs, so a ';' inside a string literal stays in its
// statement, and a syntax error in statement N surfaces only after
// statements 1…N-1 have run — on the DB path and the session path alike.
func TestScriptRunsStatementByStatement(t *testing.T) {
	db := Open()
	script := `CREATE TABLE notes (id INT, body TEXT);
		INSERT INTO notes VALUES (1, 'x;y'), (2, 'it''s; fine');
		SELEC body FROM notes;
		INSERT INTO notes VALUES (3, 'never')`
	_, err := db.ExecScript(script)
	if err == nil || !strings.Contains(err.Error(), "SELEC") {
		t.Fatalf("err = %v, want the syntax error of statement 3", err)
	}
	res, err := db.Exec("SELECT body FROM notes WHERE body = 'x;y' OR id = 2")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][0] != "x;y" || res.Rows[1][0] != "it's; fine" {
		t.Errorf("rows = %v: statements 1 and 2 should have run, with their literals whole", res.Rows)
	}
	if res, err = db.Exec("SELECT COUNT(*) FROM notes"); err != nil || res.Rows[0][0] != int64(2) {
		t.Errorf("count = %v, %v: statement 4 must not run after the error", res, err)
	}

	s := db.NewSession()
	defer s.Close()
	res, err = s.ExecScript(context.Background(), "INSERT INTO notes VALUES (4, 'a;b'); SELECT body FROM notes WHERE body = 'a;b'; ")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != "a;b" {
		t.Errorf("session script rows = %v", res.Rows)
	}
}
