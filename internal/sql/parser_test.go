package sql

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
)

func mustParse(t *testing.T, q string) Statement {
	t.Helper()
	s, err := Parse(q)
	if err != nil {
		t.Fatalf("Parse(%q): %v", q, err)
	}
	return s
}

func TestLexBasics(t *testing.T) {
	toks, err := Lex("SELECT a, b FROM t WHERE a >= 1.5 AND name = 'it''s'")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []TokenKind
	for _, tok := range toks {
		kinds = append(kinds, tok.Kind)
	}
	if toks[0].Text != "SELECT" || toks[0].Kind != TokKeyword {
		t.Errorf("first token = %+v", toks[0])
	}
	// Find the string literal and check quote unescaping.
	found := false
	for _, tok := range toks {
		if tok.Kind == TokString {
			found = true
			if tok.Text != "it's" {
				t.Errorf("string literal = %q, want it's", tok.Text)
			}
		}
	}
	if !found {
		t.Error("no string token found")
	}
	_ = kinds
}

func TestLexErrors(t *testing.T) {
	for _, q := range []string{"SELECT 'unterminated", "SELECT a ! b", "SELECT 1.2.3"} {
		if _, err := Lex(q); err == nil {
			t.Errorf("Lex(%q) should fail", q)
		}
	}
}

// TestNotEqualSpellings: `<>` is `!=` — one token, one AST, one
// plan-cache key — and neither spelling runs into a neighbouring `=` or
// `>`.
func TestNotEqualSpellings(t *testing.T) {
	const bang = "SELECT count(*) FROM t WHERE city != 'a' AND PREDICT(m, a, b) != 1"
	for _, q := range []string{
		"SELECT count(*) FROM t WHERE city <> 'a' AND PREDICT(m, a, b) <> 1",
		"SELECT count(*) FROM t WHERE city<>'a' AND PREDICT(m, a, b)<>1",
	} {
		if got, want := Deparse(mustParse(t, q)), Deparse(mustParse(t, bang)); got != want {
			t.Errorf("%s deparses to %s, want %s", q, got, want)
		}
		toks, err := Lex(q)
		if err != nil {
			t.Fatal(err)
		}
		bangToks, _ := Lex(bang)
		_, key, _ := Normalize(toks)
		if _, bangKey, _ := Normalize(bangToks); key != bangKey {
			t.Errorf("%s: key %q, the != spelling's %q", q, key, bangKey)
		}
	}
	for _, q := range []string{"SELECT a FROM t WHERE a <>= 1", "SELECT a FROM t WHERE a < > 1", "SELECT a FROM t WHERE a <>> 1"} {
		if _, err := Parse(q); err == nil {
			t.Errorf("Parse(%q) should fail", q)
		}
	}
	if s := Deparse(mustParse(t, "SELECT a FROM t WHERE a <= 1 OR a >= 2 OR a<>3 OR a<3")); s != "SELECT a FROM t WHERE ((((a <= 1) OR (a >= 2)) OR (a != 3)) OR (a < 3))" {
		t.Errorf("deparsed %q", s)
	}
}

func TestLexComment(t *testing.T) {
	toks, err := Lex("SELECT 1 -- trailing comment\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != 3 { // SELECT, 1, EOF
		t.Errorf("got %d tokens, want 3", len(toks))
	}
}

func TestParseSelectFull(t *testing.T) {
	s := mustParse(t, `SELECT a, COUNT(*) AS n FROM orders o JOIN users u ON o.uid = u.id
		WHERE a > 5 AND u.age BETWEEN 20 AND 30 GROUP BY a ORDER BY n DESC LIMIT 10`).(*SelectStmt)
	if s.Table != "orders" || s.Alias != "o" {
		t.Errorf("table = %s alias = %s", s.Table, s.Alias)
	}
	if len(s.Joins) != 1 || s.Joins[0].Table != "users" || s.Joins[0].Alias != "u" {
		t.Errorf("joins = %+v", s.Joins)
	}
	if s.Where == nil || len(s.GroupBy) != 1 || len(s.OrderBy) != 1 || !s.OrderBy[0].Desc || s.Limit != 10 {
		t.Errorf("clauses wrong: %+v", s)
	}
	if s.Items[1].Alias != "n" {
		t.Errorf("alias = %q", s.Items[1].Alias)
	}
	if fc, ok := s.Items[1].Expr.(*FuncCall); !ok || fc.Name != "COUNT" {
		t.Errorf("item[1] = %v", s.Items[1].Expr)
	}
}

func TestParsePrecedence(t *testing.T) {
	s := mustParse(t, "SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3").(*SelectStmt)
	or, ok := s.Where.(*BinaryExpr)
	if !ok || or.Op != "OR" {
		t.Fatalf("top op = %v, want OR (AND binds tighter)", s.Where)
	}
	and, ok := or.Right.(*BinaryExpr)
	if !ok || and.Op != "AND" {
		t.Fatalf("right = %v, want AND", or.Right)
	}
}

func TestParseArithmeticPrecedence(t *testing.T) {
	s := mustParse(t, "SELECT a + b * 2 FROM t").(*SelectStmt)
	add, ok := s.Items[0].Expr.(*BinaryExpr)
	if !ok || add.Op != "+" {
		t.Fatalf("top = %v, want +", s.Items[0].Expr)
	}
	if mul, ok := add.Right.(*BinaryExpr); !ok || mul.Op != "*" {
		t.Fatalf("right = %v, want *", add.Right)
	}
}

func TestParseNegativeNumbers(t *testing.T) {
	s := mustParse(t, "SELECT * FROM t WHERE a > -5").(*SelectStmt)
	cmp := s.Where.(*BinaryExpr)
	lit, ok := cmp.Right.(*IntLit)
	if !ok || lit.Value != -5 {
		t.Errorf("right = %v, want -5", cmp.Right)
	}
}

// TestParseInt64Extremes: a sign and the digits after it are one
// number, so the smallest INT reads; one beyond either end, or the
// smallest negated again, is an error.
func TestParseInt64Extremes(t *testing.T) {
	for text, want := range map[string]int64{
		"-9223372036854775808":   math.MinInt64,
		"- 9223372036854775808":  math.MinInt64,
		"9223372036854775807":    math.MaxInt64,
		"-(9223372036854775807)": -math.MaxInt64,
	} {
		s := mustParse(t, "SELECT a FROM t WHERE a = "+text).(*SelectStmt)
		if lit, ok := s.Where.(*BinaryExpr).Right.(*IntLit); !ok || lit.Value != want {
			t.Errorf("%s: right = %v, want %d", text, s.Where.(*BinaryExpr).Right, want)
		}
	}
	for _, text := range []string{"9223372036854775808", "-9223372036854775809", "-(-9223372036854775808)", "- -9223372036854775808"} {
		if _, err := Parse("SELECT a FROM t WHERE a = " + text); err == nil {
			t.Errorf("%s parsed", text)
		}
	}
}

// TestLiteralShortcutKeepsTheAST: a literal closed by ',' or ')' that
// parseExpr takes straight from parsePrimary is the expression the six
// precedence levels build, and leaves the parser at the same token.
func TestLiteralShortcutKeepsTheAST(t *testing.T) {
	for _, lit := range []string{"7", "-7", "- 7", "2.5", "-2.5", "'x'", "''", "-'x'", "-9223372036854775808", "9223372036854775807"} {
		for _, closer := range []string{",", ")"} {
			toks, err := Lex(lit + closer)
			if err != nil {
				t.Fatal(err)
			}
			fast, slow := &Parser{toks: toks}, &Parser{toks: toks}
			got, err1 := fast.parseExpr()
			want, err2 := slow.parseOr()
			if err1 != nil || err2 != nil || !reflect.DeepEqual(got, want) || fast.pos != slow.pos {
				t.Errorf("%s%s: shortcut %#v (%v) at %d, precedence levels %#v (%v) at %d", lit, closer, got, err1, fast.pos, want, err2, slow.pos)
			}
		}
	}
}

func TestParseCreateTable(t *testing.T) {
	s := mustParse(t, "CREATE TABLE users (id INT PRIMARY KEY, score FLOAT, name TEXT)").(*CreateTableStmt)
	if s.Name != "users" || len(s.Columns) != 3 {
		t.Fatalf("stmt = %+v", s)
	}
	if s.Columns[0].Type != "INT" || s.Columns[1].Type != "FLOAT" || s.Columns[2].Type != "TEXT" {
		t.Errorf("types = %+v", s.Columns)
	}
}

func TestParseInsertMultiRow(t *testing.T) {
	s := mustParse(t, "INSERT INTO t VALUES (1, 2.5, 'x'), (2, 3.5, 'y')").(*InsertStmt)
	if len(s.Rows) != 2 || len(s.Rows[0]) != 3 {
		t.Fatalf("rows = %+v", s.Rows)
	}
	if lit := s.Rows[1][2].(*StringLit); lit.Value != "y" {
		t.Errorf("value = %q", lit.Value)
	}
}

func TestParseUpdateDelete(t *testing.T) {
	u := mustParse(t, "UPDATE t SET a = 1, b = b + 1 WHERE id = 3").(*UpdateStmt)
	if len(u.Set) != 2 || u.Where == nil {
		t.Errorf("update = %+v", u)
	}
	d := mustParse(t, "DELETE FROM t WHERE a < 0").(*DeleteStmt)
	if d.Table != "t" || d.Where == nil {
		t.Errorf("delete = %+v", d)
	}
}

func TestParseCreateModel(t *testing.T) {
	s := mustParse(t, `CREATE MODEL churn PREDICT label ON customers
		FEATURES (age, spend) WITH (kind = 'logistic', epochs = 100)`).(*CreateModelStmt)
	if s.Name != "churn" || s.Label != "label" || s.Table != "customers" {
		t.Fatalf("stmt = %+v", s)
	}
	if len(s.Features) != 2 || s.Features[0] != "age" {
		t.Errorf("features = %v", s.Features)
	}
	if s.Options["kind"] != "logistic" || s.Options["epochs"] != "100" {
		t.Errorf("options = %v", s.Options)
	}
}

func TestParsePredictCall(t *testing.T) {
	s := mustParse(t, "SELECT name, PREDICT(churn, age, spend) FROM customers").(*SelectStmt)
	fc, ok := s.Items[1].Expr.(*FuncCall)
	if !ok || fc.Name != "PREDICT" || len(fc.Args) != 3 {
		t.Fatalf("item = %v", s.Items[1].Expr)
	}
}

func TestParseEvaluateDropShow(t *testing.T) {
	e := mustParse(t, "EVALUATE MODEL m ON holdout").(*EvaluateModelStmt)
	if e.Name != "m" || e.Table != "holdout" {
		t.Errorf("evaluate = %+v", e)
	}
	if d := mustParse(t, "DROP MODEL m").(*DropModelStmt); d.Name != "m" {
		t.Errorf("drop model = %+v", d)
	}
	if d := mustParse(t, "DROP TABLE t").(*DropTableStmt); d.Name != "t" {
		t.Errorf("drop table = %+v", d)
	}
	if s := mustParse(t, "SHOW MODELS").(*ShowStmt); s.What != "MODELS" {
		t.Errorf("show = %+v", s)
	}
}

func TestParseCreateIndex(t *testing.T) {
	s := mustParse(t, "CREATE INDEX idx_a ON t (a)").(*CreateIndexStmt)
	if s.Name != "idx_a" || s.Table != "t" || s.Column != "a" {
		t.Errorf("stmt = %+v", s)
	}
}

func TestParseExplainAnalyze(t *testing.T) {
	e := mustParse(t, "EXPLAIN SELECT * FROM t").(*ExplainStmt)
	if _, ok := e.Inner.(*SelectStmt); !ok {
		t.Errorf("inner = %T", e.Inner)
	}
	if e.Analyze {
		t.Error("plain EXPLAIN parsed as ANALYZE")
	}
	a := mustParse(t, "ANALYZE t").(*AnalyzeStmt)
	if a.Table != "t" {
		t.Errorf("analyze = %+v", a)
	}

	// EXPLAIN ANALYZE over a statement profiles it...
	ea := mustParse(t, "EXPLAIN ANALYZE SELECT a FROM t WHERE a > 1").(*ExplainStmt)
	if !ea.Analyze {
		t.Error("EXPLAIN ANALYZE did not set Analyze")
	}
	if _, ok := ea.Inner.(*SelectStmt); !ok {
		t.Errorf("EXPLAIN ANALYZE inner = %T", ea.Inner)
	}
	if got := StatementKind(ea); got != "EXPLAIN ANALYZE SELECT" {
		t.Errorf("kind = %q", got)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT FROM t",
		"SELECT * FROM",
		"SELECT * FROM t WHERE",
		"INSERT INTO t",
		"CREATE TABLE t ()",
		"CREATE TABLE t (a BADTYPE)",
		"SELECT * FROM t JOIN u ON a < b", // non-equality join
		"SELECT * FROM t LIMIT x",
		"DROP",
		"SELECT * FROM t extra garbage tokens (",
		"EXPLAIN ANALYZE t", // ANALYZE t is the one statistics refresh
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Errorf("Parse(%q) should fail", q)
		}
	}
}

func TestParseAllScript(t *testing.T) {
	stmts, err := ParseAll(`
		CREATE TABLE t (a INT);
		INSERT INTO t VALUES (1);
		SELECT * FROM t;
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 3 {
		t.Fatalf("got %d statements, want 3", len(stmts))
	}
}

// TestScriptSplitsOnStatementSemicolons: a ';' inside a string literal
// (also beside an escaped quote) or a comment belongs to its statement.
func TestScriptSplitsOnStatementSemicolons(t *testing.T) {
	stmts, err := ParseAll(`INSERT INTO t VALUES ('x;y'), ('it''s; fine');
		-- a comment; with a semicolon
		SELECT a FROM t WHERE s = ';' -- trailing; comment
		;; SELECT 1 FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 3 {
		t.Fatalf("got %d statements, want 3", len(stmts))
	}
	ins := stmts[0].(*InsertStmt)
	if got := ins.Rows[0][0].(*StringLit).Value + "|" + ins.Rows[1][0].(*StringLit).Value; got != "x;y|it's; fine" {
		t.Errorf("inserted literals = %q", got)
	}
	if w := stmts[1].(*SelectStmt).Where.String(); w != "(s = ';')" {
		t.Errorf("where = %s", w)
	}
	for _, tc := range []struct{ script, stmt, rest string }{
		{"a;b", "a", "b"},
		{"a", "a", ""},
		{" ; ;b ", "b", ""},
		{"a ;; ", "a", "; "},
		{" ;\n", "", ""},
		{"'a;b';c", "'a;b'", "c"},
		{"'a'';';b", "'a'';'", "b"},
		{"x -- c;d\n;y", "x -- c;d", "y"},
		{"'open; never closed", "'open; never closed", ""},
		{"a;\n-- end\n", "a", "\n-- end\n"},
		{"\n-- end\n", "", ""},
		{"a; -- c\n;b", "a", " -- c\n;b"},
		{" -- c\n;b", "b", ""},
		{"-;", "-", ""},
	} {
		if stmt, rest := SplitStatement(tc.script); stmt != tc.stmt || rest != tc.rest {
			t.Errorf("SplitStatement(%q) = %q, %q; want %q, %q", tc.script, stmt, rest, tc.stmt, tc.rest)
		}
	}
	if _, err := ParseAll("SELECT a FROM t; SELECT 'open; FROM t"); err == nil || !strings.Contains(err.Error(), "unterminated string") {
		t.Errorf("unterminated literal: err = %v", err)
	}
}

// TestLexAllocatesOnce: the token slice is sized from the input, for a
// short point read and for a load script's VALUES list alike, and
// keywords, names, numbers and symbols are slices of the input or
// shared strings.
func TestLexAllocatesOnce(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("INSERT INTO users VALUES ")
	for i := 0; i < 500; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "(%d,%d,'city%d',%d.5,0)", 1000+i, 18+i%60, i%16, i%100)
	}
	for _, in := range []string{"SELECT id,age,city FROM users WHERE id = 4711", sb.String()} {
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := Lex(in); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 1 {
			t.Errorf("Lex of %d bytes: %.0f allocations, want 1", len(in), allocs)
		}
	}
}

func TestExprStringRoundTrip(t *testing.T) {
	// String() output should re-parse to an equivalent expression.
	queries := []string{
		"SELECT * FROM t WHERE (a > 1 AND b < 2) OR NOT c = 3",
		"SELECT * FROM t WHERE x BETWEEN 1 AND 10",
	}
	for _, q := range queries {
		s1 := mustParse(t, q).(*SelectStmt)
		q2 := "SELECT * FROM t WHERE " + s1.Where.String()
		s2 := mustParse(t, q2).(*SelectStmt)
		if s1.Where.String() != s2.Where.String() {
			t.Errorf("round trip mismatch: %q vs %q", s1.Where.String(), s2.Where.String())
		}
	}
}

func TestKeywordsCaseInsensitive(t *testing.T) {
	s := mustParse(t, "select a from t where a = 1 limit 5").(*SelectStmt)
	if s.Table != "t" || s.Limit != 5 {
		t.Errorf("lowercase parse failed: %+v", s)
	}
}

func TestIdentifiersPreserveCase(t *testing.T) {
	s := mustParse(t, "SELECT MyCol FROM MyTable").(*SelectStmt)
	if s.Table != "MyTable" {
		t.Errorf("table = %q", s.Table)
	}
	if c := s.Items[0].Expr.(*ColumnRef); c.Column != "MyCol" {
		t.Errorf("column = %q", c.Column)
	}
}

func TestQualifiedStar(t *testing.T) {
	s := mustParse(t, "SELECT t.* FROM t").(*SelectStmt)
	c, ok := s.Items[0].Expr.(*ColumnRef)
	if !ok || c.Table != "t" || c.Column != "*" {
		t.Errorf("item = %v", s.Items[0].Expr)
	}
}

func TestBigScriptParses(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("CREATE TABLE w (a INT, b INT);")
	for i := 0; i < 100; i++ {
		sb.WriteString("INSERT INTO w VALUES (1, 2);")
	}
	stmts, err := ParseAll(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 101 {
		t.Errorf("got %d statements", len(stmts))
	}
}

func TestParseInList(t *testing.T) {
	s := mustParse(t, "SELECT * FROM t WHERE a IN (1, 2, 3)").(*SelectStmt)
	in, ok := s.Where.(*InExpr)
	if !ok || len(in.List) != 3 || in.Negated {
		t.Fatalf("where = %v", s.Where)
	}
	s = mustParse(t, "SELECT * FROM t WHERE a NOT IN (1, 'x')").(*SelectStmt)
	in, ok = s.Where.(*InExpr)
	if !ok || !in.Negated || len(in.List) != 2 {
		t.Fatalf("where = %v", s.Where)
	}
	if in.String() != "a NOT IN (1, 'x')" {
		t.Errorf("String() = %q", in.String())
	}
	if _, err := Parse("SELECT * FROM t WHERE a IN ()"); err == nil {
		t.Error("empty IN list should fail")
	}
	if _, err := Parse("SELECT * FROM t WHERE a IN 1"); err == nil {
		t.Error("IN without parens should fail")
	}
}
