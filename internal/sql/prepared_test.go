package sql

import (
	"strings"
	"testing"
)

func TestParsePrepareSelect(t *testing.T) {
	stmt, err := Parse("PREPARE getuser AS SELECT id, name FROM users WHERE id = $1")
	if err != nil {
		t.Fatal(err)
	}
	p, ok := stmt.(*PrepareStmt)
	if !ok {
		t.Fatalf("got %T, want *PrepareStmt", stmt)
	}
	if p.Name != "getuser" {
		t.Errorf("name = %q", p.Name)
	}
	sel, ok := p.Stmt.(*SelectStmt)
	if !ok {
		t.Fatalf("inner = %T, want *SelectStmt", p.Stmt)
	}
	if got := CountParams(p); got != 1 {
		t.Errorf("CountParams = %d, want 1", got)
	}
	if sel.Where == nil {
		t.Fatal("WHERE clause lost")
	}
}

func TestParsePrepareDML(t *testing.T) {
	for _, q := range []string{
		"PREPARE ins AS INSERT INTO t VALUES ($1, $2)",
		"PREPARE upd AS UPDATE t SET x = $1 WHERE y = $2",
		"PREPARE del AS DELETE FROM t WHERE x = $1",
	} {
		stmt, err := Parse(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		p := stmt.(*PrepareStmt)
		if got := CountParams(p); got < 1 {
			t.Errorf("%s: CountParams = %d, want >= 1", q, got)
		}
	}
}

func TestParseExecute(t *testing.T) {
	stmt, err := Parse("EXECUTE getuser (42, 'bob', 1 + 2)")
	if err != nil {
		t.Fatal(err)
	}
	e, ok := stmt.(*ExecuteStmt)
	if !ok {
		t.Fatalf("got %T, want *ExecuteStmt", stmt)
	}
	if e.Name != "getuser" || len(e.Args) != 3 {
		t.Fatalf("name=%q args=%d", e.Name, len(e.Args))
	}
	// Bare EXECUTE without arguments.
	stmt, err = Parse("EXECUTE noargs")
	if err != nil {
		t.Fatal(err)
	}
	if e := stmt.(*ExecuteStmt); len(e.Args) != 0 {
		t.Fatalf("bare EXECUTE args = %d, want 0", len(e.Args))
	}
}

func TestParseDeallocateAndTxn(t *testing.T) {
	for q, want := range map[string]string{
		"DEALLOCATE getuser":         "DEALLOCATE",
		"DEALLOCATE PREPARE getuser": "DEALLOCATE",
		"BEGIN":                      "BEGIN",
		"COMMIT":                     "COMMIT",
		"ROLLBACK":                   "ROLLBACK",
	} {
		stmt, err := Parse(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if got := StatementKind(stmt); got != want {
			t.Errorf("%s: kind = %q, want %q", q, got, want)
		}
	}
}

func TestParamLexing(t *testing.T) {
	stmt, err := Parse("SELECT * FROM t WHERE a = $1 AND b = $12")
	if err != nil {
		t.Fatal(err)
	}
	if got := CountParams(stmt); got != 12 {
		t.Errorf("CountParams = %d, want 12 (highest index)", got)
	}
	if _, err := Parse("SELECT * FROM t WHERE a = $"); err == nil {
		t.Error("bare '$' should be a lex error")
	}
	if _, err := Parse("SELECT * FROM t WHERE a = $0"); err == nil {
		t.Error("$0 should be rejected (parameters are 1-based)")
	}
}

func TestDeparseRoundTrip(t *testing.T) {
	queries := []string{
		"SELECT id, name AS n FROM users u JOIN orders o ON u.id = o.uid WHERE u.age > 30 GROUP BY u.age ORDER BY u.age DESC LIMIT 10",
		"SELECT DISTINCT x FROM t WHERE y = $1",
		"SELECT COUNT(*) FROM t WHERE a BETWEEN 1 AND 5 AND b IN (1, 2, 3)",
		"UPDATE t SET b = b + 1, a = $2 WHERE id = $1 AND c < 'x'",
		"UPDATE t SET a = 0",
		"DELETE FROM t WHERE id BETWEEN $1 AND 9",
		"DELETE FROM t",
	}
	for _, q := range queries {
		s1, err := Parse(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		d1 := Deparse(s1)
		if d1 == "" {
			t.Fatalf("%s: empty deparse", q)
		}
		// Deparse must be a fixed point: parse(deparse(x)) deparses the same.
		s2, err := Parse(d1)
		if err != nil {
			t.Fatalf("reparse %q: %v", d1, err)
		}
		if d2 := Deparse(s2); d2 != d1 {
			t.Errorf("deparse not canonical:\n  first:  %s\n  second: %s", d1, d2)
		}
	}
	// SET clauses are keyed by column, so their written order must not
	// split one statement over two cache entries.
	u1, _ := Parse("UPDATE t SET a = 1, b = 2")
	u2, _ := Parse("UPDATE t SET b = 2, a = 1")
	if Deparse(u1) != Deparse(u2) {
		t.Errorf("SET order changes the deparse: %q vs %q", Deparse(u1), Deparse(u2))
	}
	// Literal values must survive — they are the cache key's identity.
	s, _ := Parse("SELECT * FROM t WHERE a > 30")
	if d := Deparse(s); !strings.Contains(d, "30") {
		t.Errorf("deparse dropped the literal: %s", d)
	}
}
