package core

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"aidb/internal/idxadvisor"
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

// TestAdviseIndexes: the index advisor reads the workload the engine
// actually ran, through SQL over system.statements, and ranks the
// column the workload filters on most often first.
func TestAdviseIndexes(t *testing.T) {
	db := Open()
	if _, err := db.Exec("CREATE TABLE logs (user_id INT, action INT, note TEXT)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := db.Exec(fmt.Sprintf("INSERT INTO logs VALUES (%d, %d, 'x')", i%10, i%3)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		if _, err := db.Exec(fmt.Sprintf("SELECT note FROM logs WHERE user_id BETWEEN %d AND %d", i%7, i%7+3)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		if _, err := db.Exec(fmt.Sprintf("SELECT COUNT(*) FROM logs WHERE action = %d", i%3)); err != nil {
			t.Fatal(err)
		}
	}
	recs, err := idxadvisor.StatementsViaSQL(db.Engine())
	if err != nil {
		t.Fatal(err)
	}
	cands := idxadvisor.Candidates(recs)
	want := []idxadvisor.Candidate{{Table: "logs", Column: "user_id", Weight: 100}, {Table: "logs", Column: "action", Weight: 10}}
	if !reflect.DeepEqual(cands, want) {
		t.Errorf("candidates = %+v, want %+v", cands, want)
	}
}

// TestAdviseIndexesErrors: only statements that succeeded count as
// workload; a filter that failed to run names no index candidate.
func TestAdviseIndexesErrors(t *testing.T) {
	db := Open()
	if _, err := db.Exec("CREATE TABLE logs (user_id INT, note TEXT)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := db.Exec("SELECT note FROM logs WHERE ghost = 1"); err == nil {
			t.Fatal("filter on an unknown column succeeded")
		}
		if _, err := db.Exec("SELECT note FROM nosuch WHERE user_id = 1"); err == nil {
			t.Fatal("select from an unknown table succeeded")
		}
	}
	if _, err := db.Exec("SELECT note FROM logs WHERE user_id = 1"); err != nil {
		t.Fatal(err)
	}
	if res, err := db.Exec("SELECT COUNT(*) FROM system.statements WHERE errors > 0"); err != nil || res.Rows[0][0] != int64(1) {
		t.Fatalf("failed statements in system.statements = %v, %v; want the planned one", res, err)
	}
	recs, err := idxadvisor.StatementsViaSQL(db.Engine())
	if err != nil {
		t.Fatal(err)
	}
	want := []idxadvisor.Candidate{{Table: "logs", Column: "user_id", Weight: 1}}
	if cands := idxadvisor.Candidates(recs); !reflect.DeepEqual(cands, want) {
		t.Errorf("candidates = %+v, want %+v", cands, want)
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
	// Chunk run state is recycled process-wide, so whether a get hits or
	// misses depends on the tests before this one; every pooled get is
	// metered as one or the other, so their sum must grow.
	gets := func() float64 {
		snap := db.Metrics().Snapshot()
		return snap["exec.chunk_pool.hits"] + snap["exec.chunk_pool.misses"]
	}
	before := gets()
	if _, err := db.Exec("SELECT a FROM s WHERE b < 25"); err != nil {
		t.Fatal(err)
	}
	if gets() <= before {
		t.Errorf("exec.chunk_pool hits + misses stayed %v across a 3000-row query", before)
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
}

// TestScriptSkipsCommentOnlyPieces: a piece of a script that holds only
// a comment, between statements or after the last, is not a statement.
func TestScriptSkipsCommentOnlyPieces(t *testing.T) {
	db := Open()
	res, err := db.ExecScript("CREATE TABLE c (a INT); -- c\n;\nINSERT INTO c VALUES (1);\nSELECT a FROM c;\n-- end\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != int64(1) {
		t.Errorf("rows = %v, want the SELECT's one row", res.Rows)
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
