package sql

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

func normalize(t testing.TB, raw string) (string, []any) {
	t.Helper()
	toks, err := Lex(raw)
	if err != nil {
		t.Fatalf("%s: %v", raw, err)
	}
	_, key, params := Normalize(toks)
	return key, params
}

// TestNormalize is the key function's contract, case by case: what
// becomes a parameter, what stays in the key, and what is left alone.
func TestNormalize(t *testing.T) {
	for _, c := range []struct {
		name, raw, key string
		params         []any
	}{
		{"point read", "SELECT id,age,city FROM users WHERE id = 4711",
			"SELECT id, age, city FROM users WHERE id = $1", []any{int64(4711)}},
		{"range read, keywords in any case", "select id from users where id > 10 and id < 29",
			"SELECT id FROM users WHERE id > $1 AND id < $2", []any{int64(10), int64(29)}},
		{"a closing ; is not part of the key", "SELECT id FROM users WHERE id = 1;",
			"SELECT id FROM users WHERE id = $1", []any{int64(1)}},
		{"float and string", "SELECT * FROM t WHERE score >= 1.5 AND name = 'bob'",
			"SELECT * FROM t WHERE score >= $1 AND name = $2", []any{1.5, "bob"}},
		{"a string is unescaped in params and would be re-quoted in a key", "SELECT * FROM t WHERE s = 'it''s; $1 -- x'",
			"SELECT * FROM t WHERE s = $1", []any{"it's; $1 -- x"}},
		{"a sign the parser folds is folded", "SELECT * FROM t WHERE a > -5 AND b = - 2.5 AND c IN (-1, 2)",
			"SELECT * FROM t WHERE a > $1 AND b = $2 AND c IN ($3, $4)", []any{int64(-5), -2.5, int64(-1), int64(2)}},
		{"a binary minus is not a sign", "SELECT * FROM t WHERE a -5 = b - 1 AND (c) -2 = 0 AND d * -3 = 0",
			"SELECT * FROM t WHERE a - $1 = b - $2 AND (c) - $3 = $4 AND d * $5 = $6",
			[]any{int64(5), int64(1), int64(2), int64(0), int64(-3), int64(0)}},
		{"BETWEEN and arithmetic", "SELECT a FROM t WHERE a BETWEEN 1 AND 10 AND b + 2 < 7",
			"SELECT a FROM t WHERE a BETWEEN $1 AND $2 AND b + $3 < $4", []any{int64(1), int64(10), int64(2), int64(7)}},
		{"the select list names the result columns", "SELECT id, 7, 'x', a + 1 FROM t WHERE id = 7",
			"SELECT id, 7, 'x', a + 1 FROM t WHERE id = $1", []any{int64(7)}},
		{"GROUP BY, ORDER BY and LIMIT shape the plan", "SELECT a, COUNT(*) FROM t WHERE b = 2 GROUP BY a, 1 ORDER BY 2 DESC, a + 3 LIMIT 5",
			"SELECT a, COUNT(*) FROM t WHERE b = $1 GROUP BY a, 1 ORDER BY 2 DESC, a + 3 LIMIT 5", []any{int64(2)}},
		{"ON is a predicate too", "SELECT * FROM a JOIN b ON a.x = b.y WHERE a.z = 3",
			"SELECT * FROM a JOIN b ON a.x = b.y WHERE a.z = $1", []any{int64(3)}},
		{"PREDICT in WHERE", "SELECT count(*) FROM users WHERE PREDICT(churn, age, 2.5) = 1",
			"SELECT count(*) FROM users WHERE PREDICT(churn, age, $1) = $2", []any{2.5, int64(1)}},
		{"UPDATE: SET and WHERE", "UPDATE t SET a = 1, b = b + 1, c = 'x' WHERE id = 3",
			"UPDATE t SET a = $1, b = b + $2, c = $3 WHERE id = $4", []any{int64(1), int64(1), "x", int64(3)}},
		{"DELETE", "DELETE FROM t WHERE a < 0",
			"DELETE FROM t WHERE a < $1", []any{int64(0)}},
		{"no literals", "SELECT a FROM t", "SELECT a FROM t", nil},
		{"EXPLAIN is keyed by what it explains", "EXPLAIN SELECT a FROM t WHERE a = 5",
			"SELECT a FROM t WHERE a = $1", []any{int64(5)}},
		{"EXPLAIN ANALYZE too", "EXPLAIN ANALYZE DELETE FROM t WHERE a = 5",
			"DELETE FROM t WHERE a = $1", []any{int64(5)}},
		{"a PREPARE body with $N is the client's to bind", "PREPARE p AS SELECT id,age,city FROM users WHERE id = $1",
			"SELECT id, age, city FROM users WHERE id = $1", nil},
		{"a PREPARE body without one is normalized like ad-hoc text", "PREPARE p AS SELECT a FROM t WHERE a = 5",
			"SELECT a FROM t WHERE a = $1", []any{int64(5)}},
		{"any $N leaves every literal in place", "SELECT a FROM t WHERE a = $1 AND b = 7",
			"SELECT a FROM t WHERE a = $1 AND b = 7", nil},
		{"a minus before a parenthesis leaves the statement as written", "SELECT a FROM t WHERE a = -(5) AND b = 1",
			"SELECT a FROM t WHERE a = - (5) AND b = 1", nil},
		{"so does a minus before a minus", "SELECT a FROM t WHERE a = - -5",
			"SELECT a FROM t WHERE a = - - 5", nil},
		{"a number the parser rejects stays for it to report", "SELECT a FROM t WHERE a = 99999999999999999999 AND b = 1",
			"SELECT a FROM t WHERE a = 99999999999999999999 AND b = $1", []any{int64(1)}},
		{"and so does its sign", "SELECT a FROM t WHERE a = -9223372036854775808",
			"SELECT a FROM t WHERE a = - 9223372036854775808", nil},
		{"INSERT has no plan", "INSERT INTO t VALUES (1, 'x')", "", nil},
		{"nor has DDL", "CREATE TABLE t (a INT)", "", nil},
		{"nor a PREPARE of an INSERT", "PREPARE i AS INSERT INTO t VALUES ($1)", "", nil},
		{"nor EXPLAIN ANALYZE <table>", "EXPLAIN ANALYZE t", "", nil},
		{"nor a session statement", "EXECUTE p (1, 2)", "", nil},
	} {
		t.Run(c.name, func(t *testing.T) {
			before, err := Lex(c.raw)
			if err != nil {
				t.Fatal(err)
			}
			toks, key, params := Normalize(append([]Token(nil), before...))
			if key != c.key {
				t.Errorf("key:\n  %s\nwant:\n  %s", key, c.key)
			}
			if !reflect.DeepEqual(params, c.params) {
				t.Errorf("params %#v, want %#v", params, c.params)
			}
			if params == nil && !reflect.DeepEqual(toks, before) {
				t.Errorf("no parameters, yet the tokens changed:\n  %v\n  %v", toks, before)
			}
			for i, tok := range toks {
				if tok.Kind == TokParam && params != nil && c.raw[tok.Pos] == '$' {
					t.Errorf("token %d: a parameter at position %d, where the client wrote one", i, tok.Pos)
				}
			}
		})
	}
}

// TestNormalizeKeepsPositions: a parse error in normalized tokens points
// where the client's text has the problem.
func TestNormalizeKeepsPositions(t *testing.T) {
	const raw = "SELECT a FROM t WHERE a = 5 AND (b = 'x' OR"
	toks, err := Lex(raw)
	if err != nil {
		t.Fatal(err)
	}
	toks, _, _ = Normalize(toks)
	_, gotErr := ParseTokens(toks)
	_, wantErr := Parse(raw)
	if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
		t.Errorf("normalized: %v\nraw:        %v", gotErr, wantErr)
	}
}

// substitute puts params back where stmt spells $N, in place.
func substitute(stmt Statement, params []any) {
	var sub func(e Expr) Expr
	sub = func(e Expr) Expr {
		switch v := e.(type) {
		case *ParamRef:
			if v.Index > len(params) {
				return e // the client's own
			}
			switch p := params[v.Index-1].(type) {
			case int64:
				return &IntLit{Value: p}
			case float64:
				return &FloatLit{Value: p}
			case string:
				return &StringLit{Value: p}
			}
		case *BinaryExpr:
			v.Left, v.Right = sub(v.Left), sub(v.Right)
		case *NotExpr:
			v.Inner = sub(v.Inner)
		case *BetweenExpr:
			v.Subject, v.Lo, v.Hi = sub(v.Subject), sub(v.Lo), sub(v.Hi)
		case *InExpr:
			v.Subject = sub(v.Subject)
			for i := range v.List {
				v.List[i] = sub(v.List[i])
			}
		case *FuncCall:
			for i := range v.Args {
				v.Args[i] = sub(v.Args[i])
			}
		}
		return e
	}
	switch v := stmt.(type) {
	case *SelectStmt:
		for i := range v.Items {
			v.Items[i].Expr = sub(v.Items[i].Expr)
		}
		for i := range v.Joins {
			sub(v.Joins[i].On)
		}
		if v.Where != nil {
			v.Where = sub(v.Where)
		}
		for i := range v.GroupBy {
			v.GroupBy[i] = sub(v.GroupBy[i])
		}
		for i := range v.OrderBy {
			v.OrderBy[i].Expr = sub(v.OrderBy[i].Expr)
		}
	case *UpdateStmt:
		for c, e := range v.Set {
			v.Set[c] = sub(e)
		}
		if v.Where != nil {
			v.Where = sub(v.Where)
		}
	case *DeleteStmt:
		if v.Where != nil {
			v.Where = sub(v.Where)
		}
	}
}

// planned unwraps EXPLAIN and PREPARE to the statement they plan.
func planned(s Statement) Statement {
	switch v := s.(type) {
	case *ExplainStmt:
		return v.Inner
	case *PrepareStmt:
		return v.Stmt
	}
	return s
}

// checkNormalize holds one statement text to the properties every text
// must have: normalizing never turns a statement the parser accepts into
// one it rejects or back; the literals taken out, put back, give the
// statement as the parser alone reads it; and the key is SQL for the
// statement the cache will plan under it. It reports whether raw parsed.
func checkNormalize(t testing.TB, raw string) bool {
	t.Helper()
	toks, err := Lex(raw)
	if err != nil {
		return false
	}
	want, rawErr := Parse(raw)
	toks, key, params := Normalize(toks)
	got, err := ParseTokens(toks)
	if (err != nil) != (rawErr != nil) {
		t.Fatalf("%q\nraw parse:        %v\nnormalized parse: %v", raw, rawErr, err)
	}
	if err != nil {
		return false
	}
	if key == "" {
		if params != nil {
			t.Fatalf("%q: parameters %v without a key", raw, params)
		}
		return true
	}
	// (Fewer is possible: a SET that names a column twice keeps the last.)
	if n := CountParams(planned(got)); params != nil && n > len(params) {
		t.Fatalf("%q: %d parameters for a statement with $%d", raw, len(params), n)
	}
	keyed, err := Parse(key)
	if err != nil {
		t.Fatalf("%q: key %q does not parse: %v", raw, key, err)
	}
	if k, g := Deparse(keyed), Deparse(planned(got)); k != g {
		t.Fatalf("%q: key %q reads\n  %s\nbut the statement planned under it is\n  %s", raw, key, k, g)
	}
	substitute(planned(got), params)
	if g, w := Deparse(planned(got)), Deparse(planned(want)); g != w {
		t.Fatalf("%q (key %q, params %v) round-trips to\n  %s\nwant\n  %s", raw, key, params, g, w)
	}
	return true
}

// stmtGen emits seeded statements over the grammar Normalize walks.
type stmtGen struct{ r *rand.Rand }

func (g *stmtGen) pick(s ...string) string { return s[g.r.Intn(len(s))] }

func (g *stmtGen) literal() string {
	switch g.r.Intn(10) {
	case 0:
		return fmt.Sprint(-g.r.Intn(100))
	case 1:
		return fmt.Sprintf("%d.%d", g.r.Intn(1000), g.r.Intn(100))
	case 2:
		return fmt.Sprintf("-%d.5", g.r.Intn(50))
	case 3:
		return g.pick("'bob'", "''", "'it''s'", "'a;b'", "'$1'", "'x -- y'", "'SELECT 1'")
	case 4:
		return "- " + fmt.Sprint(g.r.Intn(9)) // a sign set apart
	}
	return fmt.Sprint(g.r.Intn(100000))
}

func (g *stmtGen) operand(depth int) string {
	switch g.r.Intn(8) {
	case 0, 1, 2:
		return g.literal()
	case 3:
		return g.pick("a", "b", "t.c", "u.id")
	case 4:
		if depth < 2 {
			return "(" + g.operand(depth+1) + " " + g.pick("+", "-", "*", "/") + " " + g.operand(depth+1) + ")"
		}
	case 5:
		if depth < 2 {
			return g.operand(depth+1) + g.pick(" + ", " - ", "-", " * ") + g.operand(depth+1)
		}
	case 6:
		return "PREDICT(m, a, " + g.literal() + ")"
	}
	return g.pick("a", "b") + " " + g.pick("+", "-", "*") + " " + g.literal()
}

func (g *stmtGen) cond(depth int) string {
	switch g.r.Intn(9) {
	case 0:
		return g.operand(0) + " BETWEEN " + g.operand(1) + " AND " + g.operand(1)
	case 1:
		items := make([]string, 1+g.r.Intn(5))
		for i := range items {
			items[i] = g.literal()
		}
		return g.pick("a", "t.c") + g.pick(" IN (", " NOT IN (") + strings.Join(items, ", ") + ")"
	case 2:
		if depth < 2 {
			return "(" + g.cond(depth+1) + g.pick(" AND ", " OR ") + g.cond(depth+1) + ")"
		}
	case 3:
		if depth < 2 {
			return "NOT " + g.cond(depth+1)
		}
	case 4:
		return g.literal() + " " + g.pick("=", "<", ">=") + " " + g.pick("a", "b")
	}
	return g.operand(0) + " " + g.pick("=", "!=", "<", "<=", ">", ">=") + " " + g.operand(0)
}

func (g *stmtGen) where() string {
	if g.r.Intn(6) == 0 {
		return ""
	}
	conds := make([]string, 1+g.r.Intn(3))
	for i := range conds {
		conds[i] = g.cond(0)
	}
	return " WHERE " + strings.Join(conds, g.pick(" AND ", " OR "))
}

func (g *stmtGen) statement() string {
	var s string
	switch g.r.Intn(6) {
	case 0:
		s = "UPDATE t SET a = " + g.operand(0) + g.pick("", ", b = "+g.operand(0)) + g.where()
	case 1:
		s = "DELETE FROM t" + g.where()
	default:
		s = "SELECT " + g.pick("", "DISTINCT ") + g.pick("*", "a, b", "id, 7", "a + 1, 'x' AS tag", "COUNT(*), MAX(a)", "t.*, -3") +
			" FROM t" + g.pick("", " t", " JOIN u ON t.id = u.id", " x JOIN u y ON x.id = y.id") + g.where() +
			g.pick("", "", " GROUP BY a", " GROUP BY a, 1") + g.pick("", "", " ORDER BY a", " ORDER BY 2 DESC, a + 1") +
			g.pick("", "", " LIMIT 5", fmt.Sprintf(" LIMIT %d", g.r.Intn(50)))
	}
	switch g.r.Intn(8) {
	case 0:
		s = "EXPLAIN " + s
	case 1:
		s = "EXPLAIN ANALYZE " + s
	case 2:
		s = "PREPARE p AS " + s
	case 3:
		s = strings.Replace(s, "WHERE", "WHERE b = $1 AND", 1) // the client's own parameter
	}
	return s + g.pick("", "", ";")
}

// TestNormalizeRoundTrip: 500 seeded statements, each held to
// checkNormalize, and enough of them really parameterised.
func TestNormalizeRoundTrip(t *testing.T) {
	g := &stmtGen{r: rand.New(rand.NewSource(20210622))}
	parsed, parameterised, verbatim := 0, 0, 0
	for i := 0; i < 500; i++ {
		raw := g.statement()
		if checkNormalize(t, raw) {
			parsed++
			if _, params := normalize(t, raw); params != nil {
				parameterised++
			} else if strings.Contains(raw, "WHERE") {
				verbatim++
			}
		}
	}
	if parsed < 450 || parameterised < 250 || verbatim < 30 {
		t.Errorf("weak coverage: of 500 statements %d parse, %d are parameterised, %d have a WHERE left as written", parsed, parameterised, verbatim)
	}
}

// fuzzSeeds are the load harness's statement shapes (bench/gen.go) and
// the statements parser_test.go parses.
var fuzzSeeds = []string{
	"SELECT id,age,city FROM users WHERE id = 4711",
	"SELECT id,age,city FROM users WHERE id > 100 AND id < 119",
	"SELECT count(*) FROM users WHERE age < 30 AND score > 50",
	"SELECT city, count(*), avg(score) FROM users GROUP BY city",
	"SELECT id, score FROM users WHERE age = 7",
	"SELECT users.id, orders.amount FROM users JOIN orders ON users.id = orders.user_id WHERE orders.amount > 499 AND users.age = 30 ORDER BY orders.amount DESC LIMIT 5",
	"SELECT count(*) FROM users WHERE PREDICT(churn, age, score) = 1",
	"PREPARE get AS SELECT id, owner, balance FROM accounts WHERE id = $1",
	"PREPARE upd AS UPDATE accounts SET balance = $2 WHERE id = $1",
	"PREPARE ins AS INSERT INTO accounts VALUES ($1, $2, $3)",
	"PREPARE del AS DELETE FROM accounts WHERE id = $1",
	"EXECUTE upd (17, 250.5)",
	"SELECT a, b FROM t WHERE a >= 1.5 AND name = 'it''s'",
	"SELECT 1 -- trailing comment\n",
	"SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3",
	"SELECT a + b * 2 FROM t",
	"SELECT * FROM t WHERE a > -5",
	"CREATE TABLE users (id INT PRIMARY KEY, score FLOAT, name TEXT)",
	"INSERT INTO t VALUES (1, 2.5, 'x'), (2, 3.5, 'y')",
	"UPDATE t SET a = 1, b = b + 1 WHERE id = 3",
	"DELETE FROM t WHERE a < 0",
	"SELECT name, PREDICT(churn, age, spend) FROM customers",
	"CREATE INDEX idx_a ON t (a)",
	"EXPLAIN SELECT * FROM t",
	"EXPLAIN ANALYZE SELECT a FROM t WHERE a > 1",
	"EXPLAIN ANALYZE t",
	"SELECT * FROM t JOIN u ON a < b",
	"SELECT * FROM t LIMIT x",
	"SELECT * FROM t extra garbage tokens (",
	"SELECT * FROM t WHERE (a > 1 AND b < 2) OR NOT c = 3",
	"SELECT * FROM t WHERE x BETWEEN 1 AND 10",
	"select a from t where a = 1 limit 5",
	"SELECT t.* FROM t",
	"SELECT * FROM t WHERE a IN (1, 2, 3)",
	"SELECT * FROM t WHERE a NOT IN (1, 'x')",
	"SELECT * FROM t WHERE a IN ()",
	"SELECT fingerprint, calls FROM system.statements WHERE calls > 0",
	"SELECT a FROM t WHERE a = -(5) OR b = - -2 OR c = * - 1 OR PREDICT - 1 = 0",
	"SELECT a FROM t WHERE a = 99999999999999999999 OR b = -9223372036854775808",
	"UPDATE t SET a = a * -1.5 WHERE s = 'x;y' AND t = '$1'",
}

// FuzzNormalize holds arbitrary text to checkNormalize. `go test` runs
// the seed corpus; `go test -fuzz FuzzNormalize ./internal/sql/` searches.
func FuzzNormalize(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, raw string) { checkNormalize(t, raw) })
}

// BenchmarkNormalize prices what every ad-hoc statement now pays before
// its plan-cache probe: a lexer pass and the key function.
func BenchmarkNormalize(b *testing.B) {
	for _, c := range []struct{ name, raw string }{
		{"point", "SELECT id,age,city FROM users WHERE id = 47110"},
		{"range", "SELECT id,age,city FROM users WHERE id > 47110 AND id < 47129"},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(c.raw)))
			for i := 0; i < b.N; i++ {
				toks, err := Lex(c.raw)
				if err != nil {
					b.Fatal(err)
				}
				if _, key, params := Normalize(toks); key == "" || params == nil {
					b.Fatal("not normalized")
				}
			}
		})
	}
}
