package sql

import "testing"

// parseSeeds are the statement shapes the load harness sends (bench/gen.go)
// and the ones parser_test.go pins, plus the literals a printer can get
// wrong: integral and tiny or huge floats, a negative zero, quotes.
var parseSeeds = []string{
	"SELECT id,age,city FROM users WHERE id = 47110",
	"SELECT id,age,city FROM users WHERE id > 47110 AND id < 47129",
	"SELECT count(*) FROM users WHERE age < 30 AND score > 50",
	"SELECT city, count(*), avg(score) FROM users GROUP BY city",
	"SELECT id, score FROM users WHERE age = 7",
	"SELECT users.id, orders.amount FROM users JOIN orders ON users.id = orders.user_id WHERE orders.amount > 499 AND users.age = 30 ORDER BY orders.amount DESC LIMIT 5",
	"SELECT count(*) FROM users WHERE PREDICT(churn, age, score) = 1",
	"SELECT count(*) FROM users WHERE city <> 'a' AND 1 <> PREDICT(churn, age, score)",
	"PREPARE get AS SELECT id, owner, balance FROM accounts WHERE id = $1",
	"PREPARE upd AS UPDATE accounts SET balance = $2 WHERE id = $1",
	"PREPARE ins AS INSERT INTO accounts VALUES ($1, $2, $3)",
	"PREPARE del AS DELETE FROM accounts WHERE id = $1",
	"EXECUTE upd(17, 4200)",
	"SELECT a, COUNT(*) AS n FROM orders o JOIN users u ON o.uid = u.id WHERE a > 5 AND u.age BETWEEN 20 AND 30 GROUP BY a ORDER BY n DESC LIMIT 10",
	"SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3",
	"SELECT a + b * 2 FROM t",
	"SELECT * FROM t WHERE a > -5",
	"CREATE TABLE users (id INT PRIMARY KEY, score FLOAT, name TEXT)",
	"INSERT INTO t VALUES (1, 2.5, 'x'), (2, 3.5, 'y')",
	"UPDATE t SET a = 1, b = b + 1 WHERE id = 3",
	"DELETE FROM t WHERE a < 0",
	"CREATE MODEL churn PREDICT label ON customers FEATURES (age, spend) WITH (kind = 'logistic', epochs = 100)",
	"SELECT name, PREDICT(churn, age, spend) FROM customers",
	"EVALUATE MODEL m ON holdout",
	"EXPLAIN ANALYZE SELECT a FROM t WHERE a > 1",
	"SELECT DISTINCT t.* FROM t WHERE NOT a IN (1, 'x') AND b NOT IN (2.5)",
	"SELECT 2.0, 100000000.0, 0.00001, -0.0 FROM t WHERE x = 1.5 OR y BETWEEN -0.0 AND 2.",
	"SELECT a FROM t WHERE s = 'it''s' AND u = '' AND v = ''''",
	"SELECT a FROM t WHERE a = 99999999999999999999 OR b = -9223372036854775808",
	"SELECT 1 - -1, -(a), - -2 FROM t",
	// The int64 extremes: a signed literal is one number.
	"SELECT -9223372036854775808, 9223372036854775807 FROM t WHERE a = -9223372036854775808 OR b > 1 - -9223372036854775808",
	"UPDATE t SET a = -9223372036854775808 * 1 WHERE b IN (-9223372036854775808, - 9223372036854775807)",
	"SELECT a FROM t WHERE a = -(-9223372036854775808) OR b = - -9223372036854775808",
}

// FuzzParseDeparse: the lexer and parser never panic, and a statement
// that parses deparses to text that parses back to the same text — the
// plan-cache key of an AST-prepared statement is its Deparse, so a
// second spelling of one statement would be a second cache entry, and a
// spelling that does not parse would be a statement that cannot run.
func FuzzParseDeparse(f *testing.F) {
	for _, s := range append(parseSeeds, fuzzSeeds...) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		ParseAll(raw)
		stmt, err := Parse(raw)
		if err != nil {
			return
		}
		for {
			switch s := stmt.(type) {
			case *ExplainStmt:
				stmt = s.Inner
				continue
			case *PrepareStmt:
				stmt = s.Stmt
				continue
			}
			break
		}
		text := Deparse(stmt)
		if text == "" {
			return // only SELECT, UPDATE and DELETE deparse
		}
		again, err := Parse(text)
		if err != nil {
			t.Fatalf("%q deparses to %q, which does not parse: %v", raw, text, err)
		}
		if text2 := Deparse(again); text2 != text {
			t.Fatalf("%q deparses to %q, which deparses to %q", raw, text, text2)
		}
	})
}
