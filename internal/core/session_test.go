package core

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"aidb/internal/catalog"
	"aidb/internal/sql"
)

func seededDB(t *testing.T, rows int) *DB {
	t.Helper()
	db := OpenSeeded(7)
	if _, err := db.Exec("CREATE TABLE users (id INT, age INT, city TEXT)"); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	sb.WriteString("INSERT INTO users VALUES ")
	for i := 0; i < rows; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %d, 'c%d')", i, i%80, i%5)
	}
	if _, err := db.Exec(sb.String()); err != nil {
		t.Fatal(err)
	}
	return db
}

func metric(t *testing.T, db *DB, name string) float64 {
	t.Helper()
	return db.Metrics().Snapshot()[name]
}

func TestSessionPrepareExecuteSelect(t *testing.T) {
	db := seededDB(t, 500)
	s := db.NewSession()
	defer s.Close()
	if _, err := s.Exec("PREPARE byage AS SELECT id, city FROM users WHERE age > $1 ORDER BY id LIMIT 20"); err != nil {
		t.Fatal(err)
	}
	want, err := db.Exec("SELECT id, city FROM users WHERE age > 50 ORDER BY id LIMIT 20")
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Exec("EXECUTE byage (50)")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Rows, want.Rows) {
		t.Fatalf("EXECUTE rows differ from direct query:\ngot  %v\nwant %v", got.Rows, want.Rows)
	}
	// Different binding, same plan.
	got2, err := s.Exec("EXECUTE byage (70)")
	if err != nil {
		t.Fatal(err)
	}
	want2, _ := db.Exec("SELECT id, city FROM users WHERE age > 70 ORDER BY id LIMIT 20")
	if !reflect.DeepEqual(got2.Rows, want2.Rows) {
		t.Fatal("second binding returned wrong rows")
	}
	if names := s.Prepared(); len(names) != 1 || names[0] != "byage" {
		t.Fatalf("Prepared() = %v", names)
	}
	if _, err := s.Exec("DEALLOCATE byage"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("EXECUTE byage (1)"); err == nil {
		t.Fatal("EXECUTE after DEALLOCATE should fail")
	}
}

// TestSessionPredictFeatureCount sends PREDICT and PREDICT_PROBA calls
// with too few and too many features through a session, ad hoc and
// prepared: each fails with the model's feature count, and the session
// keeps answering (PREDICT_PROBA used to panic the serving process).
func TestSessionPredictFeatureCount(t *testing.T) {
	db := OpenSeeded(7)
	var sb strings.Builder
	sb.WriteString("INSERT INTO cust VALUES ")
	for i := 0; i < 60; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %d.5, %d)", 18+i%50, i%40, i%50/25)
	}
	for _, stmt := range []string{
		"CREATE TABLE cust (age INT, spend FLOAT, label INT)",
		sb.String(),
		"CREATE MODEL p PREDICT label ON cust FEATURES (age, spend) WITH (kind = 'logistic', epochs = 5)",
	} {
		if _, err := db.Exec(stmt); err != nil {
			t.Fatal(err)
		}
	}
	s := db.NewSession()
	defer s.Close()
	for _, fn := range []string{"PREDICT", "PREDICT_PROBA"} {
		for _, args := range []string{"age", "age, spend, $1"} {
			q := "SELECT " + fn + "(p, " + args + ") FROM cust WHERE age > $1"
			if _, err := s.Exec("PREPARE q AS " + q); err != nil {
				t.Fatal(err)
			}
			for _, stmt := range []string{"EXECUTE q (20)", strings.ReplaceAll(q, "$1", "20")} {
				_, err := s.Exec(stmt)
				if err == nil || !strings.Contains(err.Error(), `model "p" expects 2 features`) {
					t.Errorf("%s (%s): error %v, want the feature count", stmt, q, err)
				}
			}
			if _, err := s.Exec("DEALLOCATE q"); err != nil {
				t.Fatal(err)
			}
		}
	}
	res, err := s.Exec("SELECT COUNT(*) FROM cust WHERE PREDICT_PROBA(p, age, spend) >= 0")
	if err != nil || res.Rows[0][0] != int64(60) {
		t.Fatalf("after the failures: %v, %v", res, err)
	}
}

func TestExecuteSkipsParserPlannerEstimator(t *testing.T) {
	db := seededDB(t, 300)
	s := db.NewSession()
	defer s.Close()
	if _, err := s.Exec("PREPARE q AS SELECT COUNT(*) FROM users WHERE age > $1"); err != nil {
		t.Fatal(err)
	}
	parses := metric(t, db, "sql.parses")
	builds := metric(t, db, "plan.builds")
	for i := 0; i < 10; i++ {
		if _, err := s.Exec(fmt.Sprintf("EXECUTE q (%d)", i)); err != nil {
			t.Fatal(err)
		}
	}
	// EXECUTE reads its literal arguments off its tokens in the session
	// layer (never through the engine's parse counter) and reuses the
	// cached plan: both pipeline counters must stay flat.
	if got := metric(t, db, "sql.parses"); got != parses {
		t.Errorf("sql.parses moved %v -> %v on the hit path", parses, got)
	}
	if got := metric(t, db, "plan.builds"); got != builds {
		t.Errorf("plan.builds moved %v -> %v on the hit path", builds, got)
	}
	if hits := metric(t, db, "plancache.hits"); hits < 10 {
		t.Errorf("plancache.hits = %v, want >= 10", hits)
	}
}

// TestExecuteLinesReadAsTheParserReads runs EXECUTE lines through a
// session against a statement that returns its two parameters. Literal
// arguments, read off the tokens, come back as the parser and evaluator
// read them; other arguments go through the parser; a line it rejects
// fails with its error, and a name no PREPARE bound fails as before.
func TestExecuteLinesReadAsTheParserReads(t *testing.T) {
	db := Open()
	s := db.NewSession()
	defer s.Close()
	if _, err := s.ExecScript(context.Background(), "CREATE TABLE one (x INT); INSERT INTO one VALUES (1); PREPARE p AS SELECT $1, $2 FROM one"); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		line string
		want catalog.Row
	}{
		{"EXECUTE p(-9223372036854775808, 'it''s')", catalog.Row{int64(math.MinInt64), "it's"}},
		{"execute p ( 2.5 , - 7 ) ;", catalog.Row{2.5, int64(-7)}},
		{"EXECUTE p(1 + 2, (4))", catalog.Row{int64(3), int64(4)}},
	} {
		res, err := s.Exec(c.line)
		if err != nil {
			t.Fatalf("%s: %v", c.line, err)
		}
		if len(res.Rows) != 1 || !reflect.DeepEqual(res.Rows[0], c.want) {
			t.Errorf("%s: %v, want %v", c.line, res.Rows, c.want)
		}
	}
	for _, line := range []string{"EXECUTE p(NULL, 1)", "EXECUTE p(99999999999999999999, 1)", "EXECUTE p(1,)", "EXECUTE p 1", "EXECUTE p('x"} {
		_, err := s.Exec(line)
		_, perr := sql.Parse(line)
		if err == nil || perr == nil || err.Error() != perr.Error() {
			t.Errorf("%s: %v, want the parser's %v", line, err, perr)
		}
	}
	if _, err := s.Exec("EXECUTE q(1)"); err == nil || err.Error() != `core: prepared statement "q" does not exist` {
		t.Errorf("EXECUTE q(1): %v", err)
	}
}

func TestAdhocTextFastPath(t *testing.T) {
	db := seededDB(t, 300)
	const q = "SELECT id FROM users WHERE age < 10 ORDER BY id"
	want, err := db.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	parses := metric(t, db, "sql.parses")
	builds := metric(t, db, "plan.builds")
	got, err := db.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Rows, want.Rows) {
		t.Fatal("cached execution returned different rows")
	}
	if m := metric(t, db, "sql.parses"); m != parses {
		t.Errorf("repeated text still parsed (%v -> %v)", parses, m)
	}
	if m := metric(t, db, "plan.builds"); m != builds {
		t.Errorf("repeated text still planned (%v -> %v)", builds, m)
	}
}

func TestPlanCacheInvalidationOnDDLAndAnalyze(t *testing.T) {
	db := seededDB(t, 300)
	const q = "SELECT COUNT(*) FROM users WHERE age = 5"
	if _, err := db.Exec(q); err != nil {
		t.Fatal(err)
	}
	if db.PlanCache().Len() == 0 {
		t.Fatal("expected a cached plan")
	}
	gen := db.PlanCache().Generation()
	if _, err := db.Exec("CREATE INDEX byage ON users (age)"); err != nil {
		t.Fatal(err)
	}
	if db.PlanCache().Generation() == gen {
		t.Fatal("CREATE INDEX did not invalidate the plan cache")
	}
	// Replanned statement picks up the index and still answers correctly.
	builds := metric(t, db, "plan.builds")
	res, err := db.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	if metric(t, db, "plan.builds") == builds {
		t.Error("statement was not replanned after invalidation")
	}
	if res.Rows[0][0].(int64) != 4 { // ages cycle 0..79 over 300 rows -> 4 hits of age=5
		t.Fatalf("post-DDL result wrong: %v", res.Rows)
	}
	gen = db.PlanCache().Generation()
	if _, err := db.Exec("ANALYZE users"); err != nil {
		t.Fatal(err)
	}
	if db.PlanCache().Generation() == gen {
		t.Fatal("ANALYZE did not invalidate the plan cache")
	}
	// DROP TABLE: the cached plan must not serve a dropped table.
	if _, err := db.Exec(q); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("DROP TABLE users"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(q); err == nil {
		t.Fatal("SELECT against dropped table served from stale plan")
	}
	// Recreate with different contents: same text must see the new table.
	if _, err := db.Exec("CREATE TABLE users (id INT, age INT, city TEXT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO users VALUES (1, 5, 'x')"); err != nil {
		t.Fatal(err)
	}
	res, err = db.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].(int64) != 1 {
		t.Fatalf("post-recreate result = %v, want 1", res.Rows)
	}
}

// TestAnalyzeFullInt64Range: ANALYZE of an INT column whose values span
// more than MaxInt64 must not take the session (or a server) down, and
// the plans estimated from its histogram must stay within the table.
func TestAnalyzeFullInt64Range(t *testing.T) {
	db := Open()
	s := db.NewSession()
	defer s.Close()
	if _, err := s.ExecScript(context.Background(), "CREATE TABLE t (a INT, b INT); "+
		"INSERT INTO t VALUES (-5000000000000000000, 1), (5000000000000000000, 2), "+
		"(-9223372036854775807, 3), (9223372036854775807, 4), (0, 5), (7, 6); ANALYZE t"); err != nil {
		t.Fatal(err)
	}
	for _, where := range []string{"a = 7", "a < 10", "a > -10", "a >= 5000000000000000000",
		"a BETWEEN -9223372036854775807 AND 9223372036854775807", "a <= -9223372036854775807", "a IN (0, 7)"} {
		res, err := s.Exec("EXPLAIN ANALYZE SELECT b FROM t WHERE " + where)
		if err != nil {
			t.Fatalf("%s: %v", where, err)
		}
		for _, row := range res.Rows {
			if est := row[1].(int64); est < 0 || est > 6 {
				t.Errorf("%s: %s est_rows = %d, want within [0, 6]", where, row[0], est)
			}
		}
	}
}

func TestPreparedReplanAfterInvalidation(t *testing.T) {
	db := seededDB(t, 200)
	s := db.NewSession()
	defer s.Close()
	if _, err := s.Exec("PREPARE q AS SELECT COUNT(*) FROM users WHERE age < $1"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("EXECUTE q (40)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("ANALYZE users"); err != nil {
		t.Fatal(err)
	}
	res, err := s.Exec("EXECUTE q (40)") // transparent replan
	if err != nil {
		t.Fatal(err)
	}
	want, _ := db.Exec("SELECT COUNT(*) FROM users WHERE age < 40")
	if !reflect.DeepEqual(res.Rows, want.Rows) {
		t.Fatalf("post-invalidation EXECUTE wrong: %v vs %v", res.Rows, want.Rows)
	}
}

func TestPlanCacheCountersInMetrics(t *testing.T) {
	db := seededDB(t, 50)
	const q = "SELECT id FROM users LIMIT 5"
	db.Exec(q)
	db.Exec(q)
	m := sysMetrics(t, db)
	for _, name := range []string{
		"plancache.hits", "plancache.misses", "plancache.invalidations",
		"plancache.inserts", "plancache.entries", "plancache.bytes",
		"sql.parses", "plan.builds",
	} {
		if _, ok := m[name]; !ok {
			t.Errorf("system.metrics missing %s", name)
		}
	}
	if m["plancache.hits"] == 0 {
		t.Error("plancache.hits stayed 0 after a repeated statement")
	}
}

func TestSystemPlanCacheTables(t *testing.T) {
	db := seededDB(t, 50)
	const q = "SELECT id FROM users LIMIT 3"
	db.Exec(q)
	db.Exec(q)
	res, err := db.Exec("SELECT cache_key, hits FROM system.plan_cache WHERE hits > 0")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range res.Rows {
		if strings.Contains(r[0].(string), "SELECT id FROM users") {
			found = true
		}
	}
	if !found {
		t.Fatalf("system.plan_cache missing the repeated statement: %v", res.Rows)
	}
	stats, err := db.Exec("SELECT hits, entries FROM system.plan_cache_stats")
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Rows) != 1 || stats.Rows[0][0].(int64) < 1 {
		t.Fatalf("system.plan_cache_stats = %v", stats.Rows)
	}

	// What the tables say of statements that differ only in a WHERE
	// literal: system.plan_cache lists the one entry they share, under the
	// normalized text, with their hits; system.statements lists what the
	// client sent first, with every call folded in.
	for _, age := range []int{3, 4, 5} {
		if _, err := db.Exec(fmt.Sprintf("SELECT city FROM users WHERE age = %d", age)); err != nil {
			t.Fatal(err)
		}
	}
	res, err = db.Exec("SELECT cache_key, num_params, hits FROM system.plan_cache WHERE fingerprint = 'Project(Filter(Scan(users)))'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != "SELECT city FROM users WHERE age = $1" || res.Rows[0][1].(int64) != 1 || res.Rows[0][2].(int64) != 2 {
		t.Errorf("system.plan_cache for three statements of one shape: %v, want one entry keyed by the normalized text with 2 hits", res.Rows)
	}
	res, err = db.Exec("SELECT query, calls FROM system.statements WHERE fingerprint = 'Project(Filter(Scan(users)))'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != "SELECT city FROM users WHERE age = 3" || res.Rows[0][1].(int64) != 3 {
		t.Errorf("system.statements: %v, want the client's first text and 3 calls", res.Rows)
	}
}

func TestSessionTxnBrackets(t *testing.T) {
	db := seededDB(t, 10)
	s := db.NewSession()
	defer s.Close()
	if _, err := s.Exec("BEGIN"); err != nil {
		t.Fatal(err)
	}
	if !s.InTxn() {
		t.Fatal("InTxn should be true after BEGIN")
	}
	if _, err := s.Exec("BEGIN"); err == nil {
		t.Fatal("nested BEGIN should fail")
	}
	if _, err := s.Exec("COMMIT"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("COMMIT"); err == nil {
		t.Fatal("COMMIT outside txn should fail")
	}
	// Clean rollback (no statements ran) succeeds.
	s.Exec("BEGIN")
	if _, err := s.Exec("ROLLBACK"); err != nil {
		t.Fatalf("clean ROLLBACK: %v", err)
	}
	// Dirty rollback reports it cannot undo.
	s.Exec("BEGIN")
	if _, err := s.Exec("INSERT INTO users VALUES (99, 1, 'z')"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("ROLLBACK"); err == nil {
		t.Fatal("dirty ROLLBACK must surface that statements were applied")
	}
}

func TestPreparedDMLWithParams(t *testing.T) {
	db := seededDB(t, 10)
	s := db.NewSession()
	defer s.Close()
	if _, err := s.Exec("PREPARE ins AS INSERT INTO users VALUES ($1, $2, 'p')"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := s.Exec(fmt.Sprintf("EXECUTE ins (%d, %d)", 100+i, i)); err != nil {
			t.Fatal(err)
		}
	}
	res, err := db.Exec("SELECT COUNT(*) FROM users WHERE id >= 100")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].(int64) != 3 {
		t.Fatalf("prepared INSERT rows = %v, want 3", res.Rows)
	}
	if _, err := s.Exec("PREPARE del AS DELETE FROM users WHERE id = $1"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("EXECUTE del (101)"); err != nil {
		t.Fatal(err)
	}
	res, _ = db.Exec("SELECT COUNT(*) FROM users WHERE id >= 100")
	if res.Rows[0][0].(int64) != 2 {
		t.Fatalf("prepared DELETE left %v rows", res.Rows)
	}
	// Wrong arity is rejected.
	if _, err := s.Exec("EXECUTE del (1, 2)"); err == nil {
		t.Fatal("arity mismatch should fail")
	}
}

// TestConcurrentSessionsSoak drives many sessions through prepare,
// execute, ad-hoc cached selects and invalidations at once; run with
// -race. Result correctness is asserted on every read.
func TestConcurrentSessionsSoak(t *testing.T) {
	db := seededDB(t, 400)
	want, err := db.Exec("SELECT COUNT(*) FROM users")
	if err != nil {
		t.Fatal(err)
	}
	total := want.Rows[0][0].(int64)
	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := db.NewSession()
			defer s.Close()
			if _, err := s.Exec("PREPARE q AS SELECT COUNT(*) FROM users WHERE id >= $1"); err != nil {
				errCh <- err
				return
			}
			for i := 0; i < 60; i++ {
				switch i % 4 {
				case 0: // prepared execute, exact answer check
					res, err := s.Exec("EXECUTE q (0)")
					if err != nil {
						errCh <- err
						return
					}
					if res.Rows[0][0].(int64) != total {
						errCh <- fmt.Errorf("goroutine %d: EXECUTE q(0) = %v, want %d", g, res.Rows[0][0], total)
						return
					}
				case 1: // ad-hoc text path (cache hit after first time)
					res, err := s.Exec("SELECT COUNT(*) FROM users WHERE id >= 0")
					if err != nil {
						errCh <- err
						return
					}
					if res.Rows[0][0].(int64) != total {
						errCh <- fmt.Errorf("goroutine %d: adhoc count = %v", g, res.Rows[0][0])
						return
					}
				case 2: // concurrent invalidation
					if i%12 == 2 {
						db.PlanCache().Invalidate()
					}
				case 3: // DDL-driven invalidation on a scratch table
					if g == 0 && i%24 == 3 {
						name := fmt.Sprintf("scratch_%d", i)
						if _, err := db.Exec("CREATE TABLE " + name + " (x INT)"); err != nil {
							errCh <- err
							return
						}
						if _, err := db.Exec("DROP TABLE " + name); err != nil {
							errCh <- err
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

func TestSessionClosedAndScript(t *testing.T) {
	db := seededDB(t, 20)
	s := db.NewSession()
	res, err := s.ExecScript(context.Background(),
		"PREPARE p AS SELECT COUNT(*) FROM users WHERE id < $1; EXECUTE p (10)")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].(int64) != 10 {
		t.Fatalf("script result = %v, want 10", res.Rows)
	}
	s.Close()
	if _, err := s.Exec("SELECT 1 FROM users"); err == nil {
		t.Fatal("closed session should refuse statements")
	}
}
