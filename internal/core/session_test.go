package core

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"aidb/internal/cardest"
	"aidb/internal/ml"
	"aidb/internal/workload"
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
	// EXECUTE parses only its own tiny statement in the session layer
	// (never through the engine's parse counter) and reuses the cached
	// plan: both pipeline counters must stay flat.
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

func TestPlanCacheInvalidationOnEstimatorRetrain(t *testing.T) {
	db := seededDB(t, 100)
	spec := workload.TableSpec{
		Name: "t",
		Rows: 1000,
		Columns: []workload.Column{
			{Name: "a", NDV: 50, CorrelatedWith: -1},
			{Name: "b", NDV: 50, CorrelatedWith: -1},
		},
	}
	base := cardest.NewMLPEstimator(ml.NewRNG(3), spec, 8)
	fb := cardest.NewFeedbackEstimator(base)
	db.NewEstimatorCache(fb, 16)
	gen := db.PlanCache().Generation()
	g := workload.NewQueryGen(ml.NewRNG(4), spec)
	for i := 0; i < 64; i++ {
		fb.Record(g.Next(), 10)
	}
	if err := fb.Retrain(ml.NewRNG(5), 1); err != nil {
		t.Fatal(err)
	}
	if db.PlanCache().Generation() == gen {
		t.Fatal("estimator retrain did not invalidate the plan cache")
	}
}

func TestPlanCacheCountersInMetrics(t *testing.T) {
	db := seededDB(t, 50)
	const q = "SELECT id FROM users LIMIT 5"
	db.Exec(q)
	db.Exec(q)
	var sb strings.Builder
	if err := db.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, name := range []string{
		"plancache.hits", "plancache.misses", "plancache.invalidations",
		"plancache.inserts", "plancache.entries", "plancache.bytes",
		"sql.parses", "plan.builds",
	} {
		if !strings.Contains(out, name) {
			t.Errorf("metrics exposition missing %s", name)
		}
	}
	if strings.Contains(out, "plancache.hits 0\n") {
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
	// normalized text, with their hits; system.statements and the slow log
	// list what the client sent.
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
	res, err = db.Exec("SELECT query FROM system.slow_queries WHERE fingerprint = 'Project(Filter(Scan(users)))'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != "SELECT city FROM users WHERE age = 3" {
		t.Errorf("system.slow_queries: %v, want the client's text", res.Rows)
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
