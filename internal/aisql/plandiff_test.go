package aisql

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"

	"aidb/internal/catalog"
	"aidb/internal/exec"
	"aidb/internal/plan"
	"aidb/internal/plancache"
	"aidb/internal/sql"
)

// Differential test for the plan shapes the rule-based rewriter makes
// (the second slice of ROADMAP item 1): filters placed below joins,
// scans that decode only the columns a plan reads, expressions bound at
// compile. No knob selects the old behaviour and none is needed — the
// plan exactly as plan.Build lowers it, run by a serial executor, is the
// unoptimised reference: its filter sits above every join and its scans
// decode every column. A seeded generator emits two- and three-table
// inner joins whose WHERE mixes single-side, cross-side, $N, NULL,
// PREDICT, contradictory and ambiguous conjuncts, and single-table
// projections, aggregates and sorts that read strict subsets of a
// five-column table. Each statement runs as the raw plan, through the
// engine ad hoc (first run and plan-cache hit) and through
// PREPARE/EXECUTE (first run and hit), at Parallelism 1 and 4, on an
// engine without secondary indexes and on one with an index on a
// filtered column of each join side — and all must give the same rows
// (as multisets; as sequences under ORDER BY), or fail alike. The
// reference's executor has no chunk-form functions, so it is also the
// per-row PREDICT the engine's chunk form is checked against.

// genQuery is one generated statement: a template whose operands are
// spelled as literals or as $N.
type genQuery struct {
	text    string // {0}, {1}, ... stand for the operands
	lits    []string
	params  []catalog.Value
	ordered bool // ORDER BY on a unique key: compare as sequences
	// ref, when set, is the statement whose raw plan is the reference in
	// place of text's own (same holes).
	ref string
	// fails, when set, is what the error of every path that fails says.
	fails string
}

// spellParam renders the statement with placeholders.
func (q *genQuery) spellParam() string {
	_, param := q.spell()
	return param
}

// spell renders the statement with literal operands ("" when one has no
// literal spelling) and with placeholders.
func (q *genQuery) spell() (lit, param string) {
	lit, param = q.text, q.text
	for i, l := range q.lits {
		hole := fmt.Sprintf("{%d}", i)
		if l == "" {
			lit = ""
		}
		lit = strings.ReplaceAll(lit, hole, l)
		param = strings.ReplaceAll(param, hole, fmt.Sprintf("$%d", i+1))
	}
	return lit, param
}

type planGen struct {
	r *rand.Rand
	q *genQuery
}

// arg adds an operand and returns its hole.
func (g *planGen) arg(lit string, v catalog.Value) string {
	g.q.lits = append(g.q.lits, lit)
	g.q.params = append(g.q.params, v)
	return fmt.Sprintf("{%d}", len(g.q.params)-1)
}

func (g *planGen) intArg(lo, n int) string {
	v := int64(lo + g.r.Intn(n))
	return g.arg(fmt.Sprint(v), v)
}

func (g *planGen) floatArg(n int) string {
	v := float64(g.r.Intn(2*n)) / 2
	return g.arg(fmt.Sprintf("%.1f", v), v)
}

func (g *planGen) op() string { return []string{"=", "<", "<=", ">", ">=", "!="}[g.r.Intn(6)] }

// conjunct emits one WHERE conjunct of a join over u, o and (with three)
// i. Every comparison is between values of comparable types, so a
// conjunct is true or false of a row — never an error — wherever the
// planner decides to evaluate it; the two exceptions fail at bind, on
// every path alike.
func (g *planGen) conjunct(three bool) string {
	switch p := g.r.Intn(40); {
	case p < 6:
		return "u.age " + g.op() + " " + g.intArg(15, 70)
	case p < 10:
		return "o.amount " + g.op() + " " + g.floatArg(500)
	case p < 13:
		return "city = " + g.arg(fmt.Sprintf("'c%d'", p%8), fmt.Sprintf("c%d", p%8)) // bare name, one side has it
	case p < 15:
		return "u.age BETWEEN " + g.intArg(15, 40) + " AND " + g.intArg(30, 50)
	case p < 18:
		if three {
			return "i.qty " + g.op() + " " + g.intArg(0, 10)
		}
		return "o.user_id " + g.op() + " " + g.intArg(0, 200)
	case p < 21: // cross-side
		if p == 20 {
			if three {
				return "i.qty + 18 " + g.op() + " u.age"
			}
			return "u.age * 6 < o.amount"
		}
		if p == 18 {
			return "u.score " + g.op() + " o.amount"
		}
		return "o.id > u.id + " + g.intArg(0, 300)
	case p < 23: // a disjunction over both sides stays above the join
		return "(u.age < " + g.intArg(15, 40) + " OR o.amount > " + g.floatArg(500) + ")"
	case p < 25: // a disjunction over one side sinks whole
		return "(u.age < " + g.intArg(15, 30) + " OR u.score > " + g.floatArg(100) + ")"
	case p < 28: // NULL compares true with nothing
		return []string{"u.age = ", "o.amount < ", "u.city != "}[p-25] + g.arg("", nil)
	case p < 32:
		return "PREDICT(churn, u.age, u.score) = " + g.intArg(0, 2)
	case p < 34: // contradictory, on one side
		return "u.age < " + g.intArg(15, 20) + " AND u.age > " + g.intArg(50, 20)
	case p < 36:
		return "u.churned IN (" + g.intArg(0, 2) + ", " + g.intArg(0, 3) + ")"
	case p < 38:
		return "NOT o.amount " + g.op() + " " + g.floatArg(500)
	case p < 39:
		return "id = " + g.intArg(0, 200) // ambiguous: every table has an id
	default:
		return "u.ghost = " + g.intArg(0, 5) // unknown
	}
}

func (g *planGen) join() *genQuery {
	g.q = &genQuery{}
	three := g.r.Intn(3) == 0
	from := "users u JOIN orders o ON u.id = o.user_id"
	key := "o.id" // unique per joined row
	if three {
		from += " JOIN items i ON o.id = i.order_id"
		key = "i.id"
	}
	var conj []string
	for n := 1 + g.r.Intn(4); n > 0; n-- {
		conj = append(conj, g.conjunct(three))
	}
	where := " WHERE " + strings.Join(conj, " AND ")
	switch g.r.Intn(6) {
	case 0:
		g.q.text = "SELECT * FROM " + from + where
	case 1:
		g.q.text = "SELECT COUNT(*), MAX(o.amount), MIN(u.age) FROM " + from + where
	case 2:
		g.q.text = "SELECT u.city, COUNT(*), SUM(o.amount) FROM " + from + where + " GROUP BY u.city"
	case 3:
		g.q.ordered = true
		g.q.text = "SELECT u.id, o.amount FROM " + from + where + " ORDER BY o.amount DESC, " + key + fmt.Sprintf(" LIMIT %d", 1+g.r.Intn(12))
	default:
		cols := "u.id, o.amount"
		if three {
			cols = "u.city, i.qty, o.id"
		}
		g.q.text = "SELECT " + cols + " FROM " + from + where
	}
	return g.q
}

// mixedJoin emits an equi-join whose key columns differ in type (INT =
// FLOAT) or hold both zeros (-0.0 and 0.0), or an INT = INT join over
// values above 2^53, with the reference being the same pairs joined on a
// constant key and the key predicate run as a filter: a hash join must
// match exactly the pairs = matches.
func (g *planGen) mixedJoin() *genQuery {
	g.q = &genQuery{}
	pairs := [][2]string{{"nums", "reals"}, {"reals", "nums"}, {"reals", "reals"}, {"nums", "nums"}}
	p := pairs[g.r.Intn(len(pairs))]
	key := map[string]string{"nums": "a.n", "reals": "a.x"}[p[0]] + " = " + map[string]string{"nums": "b.n", "reals": "b.x"}[p[1]]
	from := " FROM " + p[0] + " a JOIN " + p[1] + " b ON "
	sel := "SELECT a.id, b.id"
	if g.r.Intn(3) == 0 {
		sel = "SELECT COUNT(*)"
	}
	where := ""
	if g.r.Intn(2) == 0 {
		where = " AND b.id < " + g.intArg(2, 8)
	}
	g.q.text = sel + from + key + strings.Replace(where, " AND", " WHERE", 1)
	g.q.ref = sel + from + "a.one = b.one WHERE " + key + where
	return g.q
}

// single emits a statement over the five-column users table that reads
// a strict subset of its columns.
func (g *planGen) single() *genQuery {
	g.q = &genQuery{}
	where := ""
	switch g.r.Intn(5) {
	case 0:
		where = " WHERE age " + g.op() + " " + g.intArg(15, 70)
	case 1:
		where = " WHERE score > " + g.floatArg(100) + " AND churned = " + g.intArg(0, 2)
	case 2:
		where = " WHERE city = " + g.arg("'c3'", "c3") + " OR age < " + g.intArg(15, 30)
	case 3:
		where = " WHERE PREDICT(churn, age, score) = 1 AND id < " + g.intArg(0, 200)
	}
	switch g.r.Intn(8) {
	case 0:
		g.q.text = "SELECT id, score FROM users" + where
	case 1:
		g.q.text = "SELECT COUNT(*) FROM users" + where
	case 2:
		g.q.text = "SELECT city, COUNT(*), AVG(score) FROM users" + where + " GROUP BY city"
	case 3:
		g.q.text = "SELECT MIN(score), MAX(age), SUM(churned) FROM users" + where
	case 4:
		g.q.ordered = true
		g.q.text = "SELECT id FROM users" + where + " ORDER BY score DESC, id" + fmt.Sprintf(" LIMIT %d", 1+g.r.Intn(9))
	case 5:
		g.q.text = "SELECT DISTINCT city FROM users" + where
	case 6:
		g.q.text = "SELECT age + 1, PREDICT(churn, age, score) FROM users" + where
	default:
		g.q.ordered = true
		g.q.text = "SELECT city FROM users" + where + " ORDER BY id"
	}
	return g.q
}

// predict emits a statement whose PREDICT or PREDICT_PROBA call — over
// a logistic, a linear or a tree model — stands where the engine runs
// its chunk form: a WHERE comparison with a number under each operator,
// the call on either side, alone or after an INT filter (where a logistic
// or linear PREDICT selects by its sum over a sparse selection), under
// OR, NOT, BETWEEN and IN,
// inside arithmetic and inside another call, as a GROUP BY or ORDER BY
// key, as an aggregate's argument, as a projection and on a join's side.
// The reference runs the per-row form, and rows print floats in their
// shortest exact form, so results must agree bit for bit. About one call
// in four cannot run — an unknown model, too few or too many features, a
// TEXT feature (which the engine leaves on the per-row form), a
// probability from a model that has none — and must fail alike, with
// the error the per-row form meets first even where a feature fails on
// a later row; a feature that divides by zero on some rows fails alike
// where those rows are reached.
func (g *planGen) predict() *genQuery {
	g.q = &genQuery{}
	fn, model, args := "PREDICT", []string{"churn", "lin", "tr"}[g.r.Intn(3)], "age, score"
	if g.r.Intn(3) == 0 {
		fn, model = "PREDICT_PROBA", "churn"
	}
	switch p := g.r.Intn(24); {
	case p < 3:
		args = "age + " + g.intArg(0, 5) + ", score * 0.5"
	case p < 5:
		args = "age, " + g.floatArg(100) // a constant feature
	case p < 7:
		args = "PREDICT(tr, age, score) * 40, score"
	case p == 7:
		model, g.q.fails = "ghost", `model "ghost" does not exist`
	case p == 8:
		args, g.q.fails = []string{"age", "age, score, age"}[g.r.Intn(2)], "expects 2 features"
	case p == 9:
		args, g.q.fails = "age, city", "non-numeric string"
	case p == 10:
		fn, model, g.q.fails = "PREDICT_PROBA", []string{"lin", "tr"}[g.r.Intn(2)], "not probabilistic"
	case p == 11:
		args = "100 / (age - 30), score" // fails on a row with age 30, if one is reached
	case p == 12: // a call that fails on every row, beside a feature that fails on some
		model, args, g.q.fails = "ghost", "age, 100 / (age - 30)", `model "ghost" does not exist`
	case p == 13:
		args, g.q.fails = "age, 1 / (age - 30), score", "expects 2 features"
	case p < 16:
		args = "age, score * 2" // an expression beside a column
	case p < 18:
		args = []string{"age, id", "churned, age"}[g.r.Intn(2)] // every feature an INT column
	}
	call := fn + "(" + model + ", " + args + ")"
	// cut is a constant in the range predictions take.
	cut := func() string {
		switch g.r.Intn(8) {
		case 0, 1, 2, 3:
			return g.intArg(0, 2)
		case 4:
			return g.arg("-0.0", math.Copysign(0, -1))
		}
		v := float64(g.r.Intn(100)) / 100
		return g.arg(fmt.Sprintf("%.2f", v), v)
	}
	switch g.r.Intn(13) {
	case 0:
		g.q.text = "SELECT id, " + call + " FROM users WHERE " + call + " " + g.op() + " " + cut()
	case 1:
		g.q.text = "SELECT COUNT(*) FROM users WHERE (age < " + g.intArg(15, 40) + " OR " + cut() + " <= " + call + ")"
	case 2:
		g.q.text = "SELECT id FROM users WHERE NOT " + call + " " + g.op() + " " + cut()
	case 3:
		g.q.text = "SELECT COUNT(*), SUM(score) FROM users WHERE " + call + " BETWEEN " + cut() + " AND " + cut()
	case 4:
		g.q.text = "SELECT id, age FROM users WHERE " + call + " IN (" + g.intArg(0, 2) + ", " + cut() + ")"
	case 5:
		g.q.text = "SELECT id, " + call + " * 2 + age FROM users WHERE id < " + g.intArg(0, 200)
	case 6:
		g.q.text = "SELECT " + call + ", COUNT(*), AVG(score) FROM users GROUP BY " + call
	case 7:
		g.q.ordered = true
		g.q.text = "SELECT id, " + call + " FROM users ORDER BY " + call + " DESC, id" + fmt.Sprintf(" LIMIT %d", 1+g.r.Intn(12))
	case 8: // score has no index: every path sums in heap order
		g.q.text = "SELECT SUM(" + call + "), MIN(" + call + "), MAX(" + call + "), AVG(" + call + ") FROM users WHERE score > " + g.floatArg(80)
	case 10:
		g.q.text = "SELECT COUNT(*) FROM users WHERE " + cut() + " " + g.op() + " " + call
	case 11: // the second conjunct, over the rows an INT filter kept
		g.q.text = "SELECT id FROM users WHERE age < " + g.intArg(15, 70) + " AND " + call + " " + g.op() + " " + cut()
	case 12:
		g.q.text = "SELECT COUNT(*), SUM(score) FROM users WHERE id >= " + g.intArg(0, 200) + " AND " + cut() + " " + g.op() + " " + call
	default:
		g.q.text = "SELECT u.id, o.amount FROM users u JOIN orders o ON u.id = o.user_id WHERE " + call + " " + g.op() + " " + cut() + " AND o.amount > " + g.floatArg(500)
	}
	return g.q
}

// planDiffEngine loads users (five columns), orders and items, and
// trains the models PREDICT calls: churn (logistic), lin and tr.
func planDiffEngine(t *testing.T, indexed bool) *Engine {
	t.Helper()
	e := NewEngine()
	e.Plans = plancache.New(0)
	var sb strings.Builder
	values := func(table string, n int, row func(i int) string) {
		sb.WriteString("INSERT INTO " + table + " VALUES ")
		for i := 0; i < n; i++ {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(row(i))
		}
		sb.WriteString(";\n")
	}
	sb.WriteString("CREATE TABLE users (id INT, age INT, city TEXT, score FLOAT, churned INT);\n")
	values("users", 200, func(i int) string {
		age, score := 15+(i*37)%70, float64((i*53)%200)/2
		churned := 0
		if age < 40 && score < 50 {
			churned = 1
		}
		return fmt.Sprintf("(%d, %d, 'c%d', %.1f, %d)", i, age, i%8, score, churned)
	})
	sb.WriteString("CREATE TABLE orders (id INT, user_id INT, amount FLOAT);\n")
	values("orders", 600, func(i int) string {
		return fmt.Sprintf("(%d, %d, %.1f)", i, (i*7)%230, float64((i*131)%1000)/2) // some users have none, some orders no user
	})
	sb.WriteString("CREATE TABLE items (id INT, order_id INT, qty INT);\n")
	values("items", 800, func(i int) string { return fmt.Sprintf("(%d, %d, %d)", i, (i*11)%640, i%10) })
	// Join keys of two types, both zeros, and integers 2^53 and 2^53+1,
	// which are one value as floats and two as integers.
	sb.WriteString("CREATE TABLE nums (id INT, n INT, one INT);\n")
	values("nums", 8, func(i int) string {
		return fmt.Sprintf("(%d, %s, 1)", i, []string{"-2", "0", "1", "2", "3", "9007199254740993", "9007199254740992", "1"}[i])
	})
	sb.WriteString("CREATE TABLE reals (id INT, x FLOAT, one INT);\n")
	values("reals", 8, func(i int) string {
		return fmt.Sprintf("(%d, %s, 1)", i, []string{"-0.0", "0.0", "1.0", "1.5", "2.0", "-2.0", "9007199254740992", "2.5"}[i])
	})
	sb.WriteString("CREATE MODEL churn PREDICT churned ON users FEATURES (age, score) WITH (kind = 'logistic', epochs = 20);\n")
	sb.WriteString("CREATE MODEL lin PREDICT churned ON users FEATURES (age, score) WITH (kind = 'linear');\n")
	sb.WriteString("CREATE MODEL tr PREDICT churned ON users FEATURES (age, score) WITH (kind = 'tree');\n")
	if indexed {
		sb.WriteString("CREATE INDEX users_age ON users (age); CREATE INDEX orders_user ON orders (user_id); CREATE INDEX items_qty ON items (qty)")
	}
	if _, err := e.ExecuteScript(sb.String()); err != nil {
		t.Fatal(err)
	}
	return e
}

// sequence renders a result in order; outcome renders it as a multiset.
func sequence(rows []catalog.Row, err error) string {
	if err != nil {
		return "error"
	}
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r)
	}
	return strings.Join(out, "\n")
}

func TestPlanShapeDifferential(t *testing.T) {
	engines := []*Engine{planDiffEngine(t, false), planDiffEngine(t, true)}
	// Count the rows PREDICT's chunk form is handed, which only the
	// engine's paths call: the reference's executor has no chunk forms.
	var chunkRows, selectRows atomic.Int64
	for _, e := range engines {
		countChunkRows(e, &chunkRows, &selectRows)
	}
	g := &planGen{r: rand.New(rand.NewSource(20210621))}
	ctx := context.Background()
	errors, empties, sunk, indexed := 0, 0, 0, 0
	// run checks one statement on every path against its reference and
	// returns the reference answer.
	run := func(q *genQuery) string {
		lit, param := q.spell()
		refText := param
		if q.ref != "" {
			refText = (&genQuery{text: q.ref, lits: q.lits}).spellParam()
		}
		render := outcome
		if q.ordered {
			render = sequence
		}
		want := ""
		for ei, e := range engines {
			check := func(how string, res *exec.Result, err error) {
				var rows []catalog.Row
				if err == nil {
					rows = res.Rows
				}
				got := render(rows, err)
				if how == "raw plan" && ei == 0 {
					want = got
				}
				if got != want {
					t.Fatalf("engine %d, %s: %s %v (reference %s)\n%s", ei, how, param, q.params, refText, outcomeDiff(got, want))
				}
				if err != nil && q.fails != "" && !strings.Contains(err.Error(), q.fails) {
					t.Fatalf("engine %d, %s: %s %v failed with %v, want %q", ei, how, param, q.params, err, q.fails)
				}
			}
			// The reference: Build's plan as it stands, serial.
			stmt, err := sql.Parse(refText)
			if err != nil {
				t.Fatalf("%s: %v", refText, err)
			}
			rewritePredicts(stmt)
			raw, err := plan.Build(e.Cat, stmt.(*sql.SelectStmt))
			if err != nil {
				t.Fatalf("%s: %v", refText, err)
			}
			ref := exec.New(e.funcs)
			ref.Parallelism = 1
			ref.Params = q.params
			res, err := ref.Run(raw)
			check("raw plan", res, err)
			if lit != "" {
				cols, rows, err := rawLiteralPlan(t, e, lit)
				check("literal text, raw plan", &exec.Result{Columns: cols, Rows: rows}, err)
			}

			for _, workers := range []int{1, 4} {
				e.Parallelism = workers
				prep := prepare(t, e, param)
				for _, turn := range []string{"first execute", "cache hit"} {
					res, err := e.ExecutePrepared(ctx, prep, q.params)
					check(fmt.Sprintf("prepared %s, parallelism %d", turn, workers), res, err)
				}
				for _, turn := range []string{"ad hoc", "ad hoc cache hit"} {
					if lit != "" {
						res, err := e.Execute(lit)
						check(fmt.Sprintf("%s, parallelism %d", turn, workers), res, err)
					}
				}
			}
			if shape := explainOptimized(t, e, param); ei == 1 {
				if strings.Contains(shape, "IndexScan") {
					indexed++
				}
				if under := strings.SplitN(shape, "HashJoin", 2); len(under) == 2 && strings.Contains(under[1], "Filter") {
					sunk++
				}
			}
		}
		return want
	}
	const total = 320
	for i := 0; i < total; i++ {
		q := g.join()
		if i%4 == 3 {
			q = g.single()
		}
		switch run(q) {
		case "error":
			errors++
		case "":
			empties++
		}
	}
	// Key types: a generator of its own, so the stream above is unchanged.
	mixed := &planGen{r: rand.New(rand.NewSource(20210624))}
	matched := 0
	for i := 0; i < 48; i++ {
		if want := run(mixed.mixedJoin()); want != "" && want != "0" && want != "[0]" {
			matched++
		}
	}
	if matched < 24 {
		t.Errorf("weak coverage: %d of 48 mixed-type joins matched any pair", matched)
	}
	// PREDICT in every position, chunk form against per-row form: also
	// a generator of its own.
	pg := &planGen{r: rand.New(rand.NewSource(20210625))}
	predictErrors, predictRows := 0, 0
	for i := 0; i < 240; i++ {
		switch q := pg.predict(); run(q) {
		case "error":
			predictErrors++
		case "":
		default:
			predictRows++
		}
	}
	t.Logf("of 240 PREDICT statements %d fail and %d return rows; the chunk form evaluated %d rows and selected over %d",
		predictErrors, predictRows, chunkRows.Load(), selectRows.Load())
	if predictErrors < 24 || predictRows < 120 || chunkRows.Load() < 100_000 || selectRows.Load() < 100_000 {
		t.Errorf("weak coverage: of 240 PREDICT statements %d fail and %d return rows; the chunk form evaluated %d rows and selected over %d",
			predictErrors, predictRows, chunkRows.Load(), selectRows.Load())
	}
	// The generator must actually reach the cases it is there for.
	if errors == 0 || errors > total/4 || empties < 20 || sunk < total/3 || indexed < total/8 {
		t.Errorf("weak coverage: of %d statements %d fail, %d are empty, %d have a filter under a join, %d read through an index",
			total, errors, empties, sunk, indexed)
	}
}

// TestJoinFiltersRunBelowTheJoin pins the count that makes join_top
// cheap, on a fixture of its shape: the join produces exactly the rows
// the answer has before its LIMIT, not the unfiltered join.
func TestJoinFiltersRunBelowTheJoin(t *testing.T) {
	e := NewEngine()
	var sb strings.Builder
	sb.WriteString("CREATE TABLE users (id INT, age INT, city TEXT, score FLOAT, churned INT); INSERT INTO users VALUES ")
	for i := 0; i < 2000; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %d, 'c%d', %d.5, 0)", i, 18+i%30, i%16, i%100)
	}
	sb.WriteString("; CREATE TABLE orders (id INT, user_id INT, amount FLOAT); INSERT INTO orders VALUES ")
	for i := 0; i < 6000; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %d, %d.25)", i, (i*13)%2000, (i*7)%520)
	}
	if _, err := e.ExecuteScript(sb.String()); err != nil {
		t.Fatal(err)
	}
	const from = " FROM users JOIN orders ON users.id = orders.user_id WHERE orders.amount > 499 AND users.age = 30"
	count, err := e.Execute("SELECT COUNT(*)" + from)
	if err != nil {
		t.Fatal(err)
	}
	want := uint64(count.Rows[0][0].(int64))
	if want < 5 || want > 100 {
		t.Fatalf("fixture: %d rows pass both filters, want a handful more than the LIMIT", want)
	}
	stmt, err := sql.Parse("SELECT users.id, orders.amount" + from + " ORDER BY orders.amount DESC LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	p, err := e.buildPlan(stmt, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		ex := exec.New(e.funcs)
		ex.Parallelism = workers
		res, err := ex.Run(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 5 {
			t.Errorf("parallelism %d: %d rows, want 5", workers, len(res.Rows))
		}
		if got := ex.Stats.RowsJoined.Load(); got != want {
			t.Errorf("parallelism %d: join produced %d rows, want %d (the rows passing both filters; the unfiltered join has 6000)", workers, got, want)
		}
		if got := ex.Stats.RowsScanned.Load(); got != 8000 {
			t.Errorf("parallelism %d: scanned %d rows, want 8000 (both tables, once)", workers, got)
		}
	}
}
