package core

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"aidb/internal/chaos"
	"aidb/internal/exec"
	"aidb/internal/monitor"
)

// sysWorkloadDB builds a DB with two heap tables and a repeated SELECT
// workload so every observability store has live content.
func sysWorkloadDB(t *testing.T) *DB {
	t.Helper()
	db := Open()
	script := `CREATE TABLE users (id INT, age INT);
		CREATE TABLE orders (id INT, user_id INT, amount INT);
		INSERT INTO users VALUES (1, 30), (2, 40), (3, 50), (4, 60);
		INSERT INTO orders VALUES (1, 1, 10), (2, 2, 20), (3, 2, 30), (4, 4, 40);`
	if _, err := db.ExecScript(script); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := db.Exec(fmt.Sprintf("SELECT id FROM users WHERE age > %d", 30+i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if _, err := db.Exec("SELECT u.id, o.amount FROM users u JOIN orders o ON u.id = o.user_id"); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// TestSystemTablesRegistered: every promised system table is queryable.
func TestSystemTablesRegistered(t *testing.T) {
	db := Open()
	want := []string{"system.alerts", "system.metrics",
		"system.plan_cache", "system.plan_cache_stats", "system.settings",
		"system.statements", "system.tables"}
	got := db.SystemTables()
	if len(got) != len(want) {
		t.Fatalf("SystemTables() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SystemTables() = %v, want %v", got, want)
		}
	}
	for _, name := range want {
		if _, err := db.Exec("SELECT * FROM " + name); err != nil {
			t.Errorf("SELECT * FROM %s: %v", name, err)
		}
	}
}

// TestSystemStatementsMatchesStore: a filtered SELECT over
// system.statements returns exactly what the statement-statistics store
// holds, cell for cell.
func TestSystemStatementsMatchesStore(t *testing.T) {
	db := sysWorkloadDB(t)
	snap := db.Engine().Stmts().Snapshot()
	if len(snap) == 0 {
		t.Fatal("workload recorded no statement statistics")
	}
	res, err := db.Exec("SELECT fingerprint, calls, rows, total_ns, chunks, peak_bytes FROM system.statements WHERE calls > 0 ORDER BY fingerprint, query")
	if err != nil {
		t.Fatal(err)
	}
	// The SELECT itself is recorded only after it finishes: the scan's
	// snapshot must match the pre-query store exactly.
	if len(res.Rows) != len(snap) {
		t.Fatalf("query returned %d rows, store has %d entries", len(res.Rows), len(snap))
	}
	for i, s := range snap {
		r := res.Rows[i]
		if r[0] != s.Fingerprint || r[1] != int64(s.Calls) || r[2] != s.Rows ||
			r[3] != s.TotalNs || r[4] != s.Chunks || r[5] != s.PeakBytes {
			t.Fatalf("row %d = %v, store entry = %+v", i, r, s)
		}
	}
	// The workload's statements all succeeded and accounted rows/chunks.
	for _, s := range snap {
		if s.Errors != 0 || s.Calls == 0 {
			t.Fatalf("unexpected stats entry %+v", s)
		}
	}
}

// TestSystemTablesFiltersAggregatesJoin exercises the acceptance query
// shapes — WHERE filters, aggregates, and a join across system.*
// tables — and cross-checks each against direct store reads.
func TestSystemTablesFiltersAggregatesJoin(t *testing.T) {
	db := sysWorkloadDB(t)

	// Aggregate over system.tables vs the catalog.
	res, err := db.Exec("SELECT COUNT(*), SUM(rows) FROM system.tables")
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(res.Rows[0]); got != "[2 8]" {
		t.Fatalf("system.tables aggregate = %s, want [2 8]", got)
	}

	// Filter over system.metrics vs a counter we fully control.
	db.Metrics().Counter("test.marker").Add(7)
	res, err = db.Exec("SELECT value FROM system.metrics WHERE name = 'test.marker'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != 7.0 {
		t.Fatalf("metrics filter = %v, want [[7]]", res.Rows)
	}

	// Filter over system.settings vs the live knobs.
	db.SetParallelism(3)
	res, err = db.Exec("SELECT value FROM system.settings WHERE name = 'parallelism'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != int64(3) {
		t.Fatalf("settings filter = %v, want [[3]]", res.Rows)
	}

	// Join system.statements to system.plan_cache on fingerprint: each of
	// the workload's two repeated statements ran from one cached plan,
	// missed the cache once and hit it on every later call. (The join
	// query itself is only recorded after it finishes, so its own scans
	// won't see it.)
	res, err = db.Exec("SELECT s.query, s.calls, p.hits FROM system.statements s JOIN system.plan_cache p ON s.fingerprint = p.fingerprint WHERE s.calls > 1 ORDER BY s.calls DESC")
	if err != nil {
		t.Fatal(err)
	}
	want := "[[SELECT id FROM users WHERE age > 30 5 4] [SELECT u.id, o.amount FROM users u JOIN orders o ON u.id = o.user_id 3 2]]"
	if got := fmt.Sprint(res.Rows); got != want {
		t.Fatalf("statements JOIN plan_cache = %s\nwant %s", got, want)
	}
}

// sysMetrics reads system.metrics into a name -> value map.
func sysMetrics(t *testing.T, db *DB) map[string]float64 {
	t.Helper()
	res, err := db.Exec("SELECT name, value FROM system.metrics")
	if err != nil {
		t.Fatal(err)
	}
	m := make(map[string]float64, len(res.Rows))
	for _, r := range res.Rows {
		m[r[0].(string)] = r[1].(float64)
	}
	return m
}

// TestSystemMetricsCoversExposition: every number the registry's
// expositions print — a histogram's count, sum and quantiles included,
// as Snapshot names them — is a row of system.metrics, so SQL loses
// nothing a dump showed.
func TestSystemMetricsCoversExposition(t *testing.T) {
	db := sysWorkloadDB(t)
	if _, err := db.Exec("EXPLAIN ANALYZE SELECT id FROM users WHERE age > 40"); err != nil {
		t.Fatal(err)
	}
	snap := db.Metrics().Snapshot()
	m := sysMetrics(t, db)
	for n := range snap {
		if _, ok := m[n]; !ok {
			t.Errorf("system.metrics has no row %s", n)
		}
	}
	if m["exec.peak_bytes.count"] == 0 || m["exec.peak_bytes.p50"] == 0 || m["exec.peak_bytes.p99"] < m["exec.peak_bytes.p50"] {
		t.Errorf("exec.peak_bytes quantiles: count=%v p50=%v p99=%v", m["exec.peak_bytes.count"], m["exec.peak_bytes.p50"], m["exec.peak_bytes.p99"])
	}
}

// TestSystemStatementsFoldsCalls: the calls of one statement — the same
// text with other literals, and an EXPLAIN ANALYZE of it — fold into one
// row of system.statements that keeps the first text seen; a statement
// of the same plan shape but other text keeps a row of its own.
func TestSystemStatementsFoldsCalls(t *testing.T) {
	db := sysWorkloadDB(t)
	for _, q := range []string{
		"EXPLAIN ANALYZE SELECT id FROM users WHERE age > 50",
		"SELECT age FROM users WHERE id = 2",
	} {
		if _, err := db.Exec(q); err != nil {
			t.Fatal(err)
		}
	}
	res, err := db.Exec("SELECT query, calls, errors, cancels, sheds, rows, min_ns, max_ns, p50_ns, first_seen_ns, last_seen_ns FROM system.statements WHERE fingerprint = 'Project(Filter(Scan(users)))' ORDER BY query")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows for Project(Filter(Scan(users))) = %v, want two statements", res.Rows)
	}
	point, age := res.Rows[0], res.Rows[1]
	if point[0] != "SELECT age FROM users WHERE id = 2" || point[1] != int64(1) || point[5] != int64(1) {
		t.Errorf("point statement row = %v, want 1 call, 1 row", point)
	}
	// 5 plain calls plus the EXPLAIN ANALYZE; rows sums what each run
	// returned (3 users older than 30..34 each, 1 older than 50).
	if age[0] != "SELECT id FROM users WHERE age > 30" || age[1] != int64(6) || age[5] != int64(16) {
		t.Errorf("folded row = %v, want the first text seen, 6 calls, 16 rows", age)
	}
	if age[2] != int64(0) || age[3] != int64(0) || age[4] != int64(0) {
		t.Errorf("folded row = %v, want no failed calls", age)
	}
	minNs, maxNs, p50 := age[6].(int64), age[7].(int64), age[8].(int64)
	if minNs <= 0 || maxNs < minNs || p50 <= 0 {
		t.Errorf("latency min/max/p50 = %d/%d/%d", minNs, maxNs, p50)
	}
	if first, last := age[9].(int64), age[10].(int64); first <= 0 || last < first {
		t.Errorf("first/last seen = %d/%d", first, last)
	}
}

// TestChaosFiresExactlyOnce: under a latency rule firing at every scan
// consultation, concurrent sessions mixing one-morsel and multi-morsel
// statements each charge system.statements with exactly the faults their
// own scans drew — none lost, none charged to a neighbour — and a
// statement that scans no heap table carries none.
func TestChaosFiresExactlyOnce(t *testing.T) {
	db := Open()
	seedTable(t, db, 5000)
	if _, err := db.ExecScript("CREATE TABLE one (a INT); INSERT INTO one VALUES (1), (2), (3)"); err != nil {
		t.Fatal(err)
	}
	in := chaos.New(5).Add(chaos.Rule{Site: exec.SiteExecScan, Kind: chaos.Latency, Every: 1})
	db.Engine().Chaos = in
	const sessions, rounds = 4, 20
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for w := 0; w < sessions; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := db.NewSession()
			defer s.Close()
			for i := 0; i < rounds; i++ {
				for _, q := range []string{
					"SELECT a FROM one WHERE a > 1",
					"SELECT COUNT(*) FROM t WHERE b < 50",
					"SELECT COUNT(*) FROM system.tables",
				} {
					if _, err := s.Exec(q); err != nil {
						errs <- err
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	db.Engine().Chaos = nil

	res, err := db.Exec("SELECT SUM(chaos_fires) FROM system.statements")
	if err != nil {
		t.Fatal(err)
	}
	if sum, fires := res.Rows[0][0].(float64), in.Fires(exec.SiteExecScan); sum != float64(fires) {
		t.Errorf("system.statements charges %v faults, the injector fired %d", sum, fires)
	}
	res, err = db.Exec("SELECT fingerprint, calls, chaos_fires FROM system.statements WHERE calls > 1 ORDER BY fingerprint")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("system.statements = %v, want the three statements", res.Rows)
	}
	for _, r := range res.Rows {
		fp, calls, fires := r[0].(string), r[1].(int64), r[2].(int64)
		if calls != sessions*rounds {
			t.Errorf("%s: %d calls, want %d", fp, calls, sessions*rounds)
		}
		switch {
		case strings.Contains(fp, "Scan(one)"):
			if fires != calls {
				t.Errorf("%s: one morsel per call but %d faults over %d calls", fp, fires, calls)
			}
		case strings.Contains(fp, "Scan(t)"):
			if fires%calls != 0 || fires/calls < 2 {
				t.Errorf("%s: %d faults over %d calls, want the same morsel count (> 1) per call", fp, fires, calls)
			}
		default:
			if fires != 0 {
				t.Errorf("%s: scans no heap table but was charged %d faults", fp, fires)
			}
		}
	}
}

// TestSystemTablesExplainAnalyze: the introspection path works under
// the profiled executor and reports the virtual scan operator.
func TestSystemTablesExplainAnalyze(t *testing.T) {
	db := sysWorkloadDB(t)
	res, err := db.Exec("EXPLAIN ANALYZE SELECT fingerprint, calls FROM system.statements WHERE calls > 0")
	if err != nil {
		t.Fatal(err)
	}
	text := Format(res)
	if !strings.Contains(text, "VirtualScan") {
		t.Fatalf("EXPLAIN ANALYZE profile lacks VirtualScan:\n%s", text)
	}
}

// TestSystemTablesCancellation: a cancelled context aborts a system
// scan like any other query, and the failure is classified in the
// statement statistics.
func TestSystemTablesCancellation(t *testing.T) {
	db := sysWorkloadDB(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.ExecContext(ctx, "SELECT * FROM system.statements"); err == nil {
		t.Fatal("cancelled system scan succeeded")
	}
}

// TestSQLRulesOverSystemMetrics closes the monitoring loop: a KPI rule
// written as SQL over system.metrics files a latched alert that is in
// turn visible through system.alerts.
func TestSQLRulesOverSystemMetrics(t *testing.T) {
	db := Open()
	db.Metrics().Counter("pressure.level").Add(9)
	rules := monitor.NewSQLRuleSet(db.Engine(), db.Alerts())
	rules.Add(monitor.SQLRule{Name: "pressure", Query: "SELECT value FROM system.metrics WHERE name = 'pressure.level' AND value > 5", Detail: "pressure too high"})
	if fired := rules.EvalOnce(); fired != 1 {
		t.Fatalf("first eval fired %d, want 1", fired)
	}
	if fired := rules.EvalOnce(); fired != 0 {
		t.Fatalf("latched eval fired %d, want 0", fired)
	}
	res, err := db.Exec("SELECT metric, kind, value FROM system.alerts WHERE kind = 'sqlrule'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != "pressure" || res.Rows[0][2] != 9.0 {
		t.Fatalf("system.alerts rows = %v", res.Rows)
	}
}

// TestAdmissionShedRecordedInStatements: a gate rejection lands in the
// statistics under the synthetic (admission) fingerprint.
func TestAdmissionShedRecordedInStatements(t *testing.T) {
	db := Open()
	if _, err := db.Exec("CREATE TABLE t (a INT)"); err != nil {
		t.Fatal(err)
	}
	db.SetMaxConcurrent(1)
	release, err := db.AdmissionGate().Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// With the only slot held and an already-expired deadline, the gate
	// sheds instead of queueing.
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	_, execErr := db.ExecContext(ctx, "SELECT a FROM t")
	release()
	if execErr == nil {
		t.Fatal("gated statement succeeded")
	}
	for _, s := range db.Engine().Stmts().Snapshot() {
		if s.Fingerprint == "(admission)" && s.Sheds > 0 {
			return
		}
	}
	t.Fatalf("no (admission) entry in %+v", db.Engine().Stmts().Snapshot())
}
