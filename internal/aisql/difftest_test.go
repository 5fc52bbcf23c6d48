package aisql

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"aidb/internal/catalog"
	"aidb/internal/exec"
	"aidb/internal/obs"
	"aidb/internal/plan"
	"aidb/internal/plancache"
	"aidb/internal/sql"
)

// Differential test for the access path (the first slice of ROADMAP item
// 1). A seeded generator emits predicates over an indexed Int column k
// and a non-indexed one v; every predicate runs as literal text and as
// $N placeholders, on an engine without the index and one with it, ad
// hoc and through PREPARE/EXECUTE (first execute and plan-cache hit),
// at Parallelism 1 and 4 — and every run must give the same multiset of
// rows, or fail alike. The literal text runs a third way too: parsed as
// written, lowered by plan.Build and run on a serial executor — no
// normalizing, no cache, no parameters — which is what the engine's
// ad-hoc path (literals out, cached plan, literals back as parameters)
// must be equivalent to. The same predicates then drive UPDATE and DELETE
// on both engines, whose tables and index must agree afterwards.
//
// One restriction keeps "fail alike" exact. A comparison that cannot be
// evaluated (an Int column against a string) fails a heap scan on its
// first row but cannot fail an index scan that reads no rows, in any
// engine that has indexes. So string operands appear only as parameters
// compared with k: there the planner sees them as index bounds, the scan
// falls back to the heap at open, and the two engines evaluate the very
// same filter over the very same rows.

type diffOperand struct {
	lit string        // literal spelling; "" when there is none (NULL, strings)
	val catalog.Value // parameter value
}

type diffPred struct {
	lit    string // "" when some operand has no literal spelling
	param  string
	params []catalog.Value
}

type diffGen struct{ r *rand.Rand }

func (g *diffGen) operand(col string) diffOperand {
	switch p := g.r.Intn(40); {
	case p < 31:
		n := int64(g.r.Intn(76) - 13) // k spans -10..59, v 0..22
		return diffOperand{fmt.Sprint(n), n}
	case p < 33:
		n := int64(1) << 62
		if g.r.Intn(2) == 0 {
			n = -n
		}
		return diffOperand{fmt.Sprint(n), n}
	case p < 36:
		f := float64(g.r.Intn(140)-20) / 2
		return diffOperand{fmt.Sprintf("%.1f", f), f}
	case p < 39 || col != "k":
		return diffOperand{"", nil}
	default:
		return diffOperand{"", "x"}
	}
}

// pred builds a conjunction of one to three comparisons.
func (g *diffGen) pred() diffPred {
	var lits, pars []string
	var params []catalog.Value
	hasLit := true
	arg := func(col string) (lit, par string) {
		o := g.operand(col)
		if o.lit == "" {
			hasLit = false
		}
		params = append(params, o.val)
		return o.lit, fmt.Sprintf("$%d", len(params))
	}
	for n := 1 + g.r.Intn(6)/3 + g.r.Intn(6)/5; n > 0; n-- {
		col := "k"
		if g.r.Intn(3) == 0 {
			col = "v"
		}
		var lit, par string
		switch g.r.Intn(8) {
		case 0:
			l1, p1 := arg(col)
			l2, p2 := arg(col)
			lit, par = fmt.Sprintf("%s BETWEEN %s AND %s", col, l1, l2), fmt.Sprintf("%s BETWEEN %s AND %s", col, p1, p2)
		case 1, 2: // mirrored: operand OP column
			op := []string{"=", "<", "<=", ">", ">="}[g.r.Intn(5)]
			l, p := arg(col)
			lit, par = fmt.Sprintf("%s %s %s", l, op, col), fmt.Sprintf("%s %s %s", p, op, col)
		default:
			op := []string{"=", "=", "<", "<=", ">", ">="}[g.r.Intn(6)]
			l, p := arg(col)
			lit, par = fmt.Sprintf("%s %s %s", col, op, l), fmt.Sprintf("%s %s %s", col, op, p)
		}
		lits, pars = append(lits, lit), append(pars, par)
	}
	d := diffPred{param: strings.Join(pars, " AND "), params: params}
	if hasLit {
		d.lit = strings.Join(lits, " AND ")
	}
	return d
}

func diffEngine(t *testing.T, indexed bool) *Engine {
	t.Helper()
	e := NewEngine()
	e.Plans = plancache.New(0)
	var sb strings.Builder
	sb.WriteString("CREATE TABLE t (k INT, v INT, s TEXT); INSERT INTO t VALUES ")
	for i := 0; i < 400; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %d, 's%d')", i%70-10, (i*7)%23, i)
	}
	if indexed {
		sb.WriteString("; CREATE INDEX t_k ON t (k)")
	}
	if _, err := e.ExecuteScript(sb.String()); err != nil {
		t.Fatal(err)
	}
	return e
}

// outcome is what a statement did: its rows as a sorted multiset, one
// per line, or that it failed.
func outcome(rows []catalog.Row, err error) string {
	if err != nil {
		return "error"
	}
	return strings.Join(rowSet(rows), "\n")
}

// outcomeDiff summarizes how two outcomes differ: their sizes and the
// first few rows only one of them has.
func outcomeDiff(got, want string) string {
	count := func(s string) map[string]int {
		m := map[string]int{}
		for _, l := range strings.Split(s, "\n") {
			m[l]++
		}
		return m
	}
	g, w := count(got), count(want)
	var sb strings.Builder
	fmt.Fprintf(&sb, "got %d lines, want %d", strings.Count(got, "\n")+1, strings.Count(want, "\n")+1)
	shown := 0
	for l, n := range g {
		if n > w[l] && shown < 5 {
			fmt.Fprintf(&sb, "\n  unexpected: %s", l)
			shown++
		}
	}
	for l, n := range w {
		if n > g[l] && shown < 10 {
			fmt.Fprintf(&sb, "\n  missing:    %s", l)
			shown++
		}
	}
	return sb.String()
}

// rawLiteralPlan is the reference for ad-hoc text: the statement parsed
// as written (every literal in place), lowered by plan.Build with no
// rewrite, and run by a serial executor.
func rawLiteralPlan(t *testing.T, e *Engine, text string) ([]string, []catalog.Row, error) {
	t.Helper()
	stmt, err := sql.Parse(text)
	if err != nil {
		return nil, nil, err
	}
	rewritePredicts(stmt)
	raw, err := plan.Build(e.Cat, stmt.(*sql.SelectStmt))
	if err != nil {
		return nil, nil, err
	}
	ex := exec.New(e.funcs)
	ex.Parallelism = 1
	res, err := ex.Run(raw)
	if err != nil {
		return nil, nil, err
	}
	return res.Columns, res.Rows, nil
}

func TestAccessPathDifferential(t *testing.T) {
	plain, indexed := diffEngine(t, false), diffEngine(t, true)
	g := &diffGen{r: rand.New(rand.NewSource(20210620))}
	ctx := context.Background()

	// run executes one statement every way an engine offers and checks
	// all of them against want ("" = take the first as the reference).
	// It also reports whether the prepared plan reads through the index.
	run := func(e *Engine, name string, p diffPred, head string, want string) (string, bool) {
		viaIndex := false
		check := func(how string, rows []catalog.Row, err error) {
			got := outcome(rows, err)
			if want == "" {
				want = got
			}
			if got != want {
				t.Fatalf("%s, %s: %s WHERE %s %v\n%s", name, how, head, p.param, p.params, outcomeDiff(got, want))
			}
		}
		for _, workers := range []int{1, 4} {
			e.Parallelism = workers
			how := fmt.Sprintf("parallelism %d", workers)
			prep := prepare(t, e, head+" WHERE "+p.param)
			// (A handle that found its plan in the cache has no fingerprint.)
			viaIndex = viaIndex || strings.Contains(prep.Fingerprint(), "IndexScan")
			for _, turn := range []string{"first execute", "cache hit"} {
				res, err := e.ExecutePrepared(ctx, prep, p.params)
				var rows []catalog.Row
				if err == nil {
					rows = res.Rows
				}
				check("prepared "+turn+", "+how, rows, err)
			}
			if p.lit != "" {
				res, err := e.Execute(head + " WHERE " + p.lit)
				var rows []catalog.Row
				if err == nil {
					rows = res.Rows
				}
				check("literal, "+how, rows, err)
			}
		}
		if p.lit != "" {
			_, rows, err := rawLiteralPlan(t, e, head+" WHERE "+p.lit)
			check("literal text, raw plan", rows, err)
		}
		return want, viaIndex
	}

	// contents is a table's rows as a multiset; on the indexed engine
	// the rows reachable through the index must be the same ones.
	contents := func(e *Engine, throughIndex bool) string {
		q := "SELECT k, v, s FROM t"
		if throughIndex {
			q += " WHERE k >= -1000000000000"
		}
		res, err := e.Execute(q)
		if err != nil {
			t.Fatal(err)
		}
		return outcome(res.Rows, nil)
	}

	errors, empties, indexScans := 0, 0, 0
	for i := 0; i < 400; i++ {
		p := g.pred()
		want, _ := run(plain, "no index", p, "SELECT k, v, s FROM t", "")
		_, viaIndex := run(indexed, "index", p, "SELECT k, v, s FROM t", want)
		switch want {
		case "error":
			errors++
		case "":
			empties++
		}
		if viaIndex {
			indexScans++
		}
		if i%4 != 0 {
			continue
		}
		// DML: once as a prepared statement, the next time as text.
		stmt := "DELETE FROM t"
		if i%8 == 0 {
			stmt = "UPDATE t SET v = 22 - v, k = 49 - k" // stays within the generator's domain
		}
		var results [2]string
		for j, e := range []*Engine{plain, indexed} {
			var err error
			if p.lit != "" && i%16 < 8 {
				_, err = e.Execute(stmt + " WHERE " + p.lit)
			} else {
				_, err = e.ExecutePrepared(ctx, prepare(t, e, stmt+" WHERE "+p.param), p.params)
			}
			results[j] = fmt.Sprintf("failed: %v\n", err != nil) + contents(e, false)
		}
		if results[0] != results[1] {
			t.Fatalf("%s WHERE %s %v: tables differ, indexed vs not\n%s", stmt, p.param, p.params, outcomeDiff(results[1], results[0]))
		}
		if heap, idx := contents(indexed, false), contents(indexed, true); heap != idx {
			t.Fatalf("%s WHERE %s %v: index out of step with the heap\n%s", stmt, p.param, p.params, outcomeDiff(idx, heap))
		}
		// Put back what a DELETE took, so later predicates still have
		// rows to disagree about.
		if res, err := plain.Execute("SELECT COUNT(*) FROM t"); err != nil {
			t.Fatal(err)
		} else if missing := 400 - int(res.Rows[0][0].(int64)); missing > 0 {
			var sb strings.Builder
			sb.WriteString("INSERT INTO t VALUES ")
			for j := 0; j < missing; j++ {
				if j > 0 {
					sb.WriteString(", ")
				}
				fmt.Fprintf(&sb, "(%d, %d, 'r%d.%d')", (i+j*7)%70-10, (i+j*5)%23, i, j)
			}
			for _, e := range []*Engine{plain, indexed} {
				if _, err := e.Execute(sb.String()); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	// The generator must actually reach the cases it is there for.
	if errors == 0 || empties < 20 || 400-errors-empties < 100 || indexScans < 150 {
		t.Errorf("weak coverage: %d errors, %d empty results, %d index-scan plans out of 400", errors, empties, indexScans)
	}
}

// TestAdhocLiteralDifferential holds the ad-hoc path to the raw literal
// plan over the literal spellings the generators above do not reach:
// signs, floats, strings that look like SQL, BETWEEN, IN lists, a
// literal in the select list, LIMIT, NULL. Every text runs twice with
// different literals: the second run must be a plan-cache hit — nothing
// parsed, nothing planned — and still answer for its own literals, with
// its own column headers.
func TestAdhocLiteralDifferential(t *testing.T) {
	for _, indexed := range []bool{false, true} {
		e := diffEngine(t, indexed)
		reg := obs.NewRegistry()
		e.Instrument(reg, nil)
		e.Plans.Instrument(reg)
		if _, err := e.Execute("INSERT INTO t VALUES (100, 1, 'it''s'), (101, 2, 'a;b'), (102, 3, '$1'), (103, 4, 'x -- y'), (104, 5, '')"); err != nil {
			t.Fatal(err)
		}
		counter := func(name string) uint64 { return reg.Counter(name).Value() }
		answered, failed := 0, 0

		// Each template's holes take the values of one row of fills; the
		// first row plans the shape, every later one must hit.
		for _, c := range []struct {
			template string
			fills    [][]any
		}{
			{"SELECT k, v, s FROM t WHERE k = %v", [][]any{{-7}, {12}, {-10}}},
			{"SELECT k, v, s FROM t WHERE k > %v AND v < %v", [][]any{{-3, 9.5}, {40, 2.25}, {-1000, 100}}},
			{"SELECT k, v FROM t WHERE v * %v > k - %v", [][]any{{2.5, 4}, {-1.5, 30}}},
			{"SELECT k, s FROM t WHERE s = %v", [][]any{{"'it''s'"}, {"'a;b'"}, {"'$1'"}, {"'x -- y'"}, {"''"}, {"'s17'"}}},
			{"SELECT k, v FROM t WHERE k BETWEEN %v AND %v", [][]any{{-5, 5}, {10, 3}, {-2.5, 2.5}}},
			{"SELECT k FROM t WHERE k IN (%v)", [][]any{{7}, {-9}}},
			{"SELECT k FROM t WHERE k IN (%v, %v)", [][]any{{7, 8}, {-9, 59}}},
			{"SELECT k FROM t WHERE v NOT IN (%v, %v, %v)", [][]any{{1, 2, 3}, {0, 22, 11}}},
			{"SELECT k FROM t WHERE k IN (%v, %v, %v, %v)", [][]any{{1, -2, 3, -4}, {50, 51, 52, 53}}},
			{"SELECT k FROM t WHERE s IN (%v, %v, %v, %v, %v)", [][]any{{"'s1'", "'s2'", "'$1'", "';'", "'--'"}, {"'a;b'", "''", "'s399'", "'x'", "'it''s'"}}},
			// The select list names the result: its literals stay put.
			{"SELECT k, 7, 'x', v + 1 FROM t WHERE k = %v", [][]any{{3}, {4}}},
			{"SELECT 0.5, k - 2 FROM t WHERE v >= %v AND k < 0.5", [][]any{{10}, {-1}}},
			// A comparison with NULL does not parse, on either path.
			{"SELECT k FROM t WHERE k = NULL OR v = %v", [][]any{{1}, {2}}},
			{"SELECT k FROM t WHERE s != %v AND k < NULL", [][]any{{"'x'"}, {"'y'"}}},
		} {
			for i, fill := range c.fills {
				text := fmt.Sprintf(c.template, fill...)
				wantCols, wantRows, wantErr := rawLiteralPlan(t, e, text)
				parses, builds, hits := counter("sql.parses"), counter("plan.builds"), counter("plancache.hits")
				res, err := e.Execute(text)
				var cols []string
				var rows []catalog.Row
				if err == nil {
					cols, rows = res.Columns, res.Rows
				}
				if got, want := outcome(rows, err), outcome(wantRows, wantErr); got != want {
					t.Fatalf("indexed=%v: %s\n%s", indexed, text, outcomeDiff(got, want))
				}
				switch {
				case wantErr != nil:
					failed++
				case len(wantRows) > 0:
					answered++
				}
				if fmt.Sprint(cols) != fmt.Sprint(wantCols) {
					t.Errorf("indexed=%v: %s: columns %v, want %v", indexed, text, cols, wantCols)
				}
				if i > 0 && wantErr == nil {
					if p, b, h := counter("sql.parses")-parses, counter("plan.builds")-builds, counter("plancache.hits")-hits; p != 0 || b != 0 || h != 1 {
						t.Errorf("indexed=%v: %s: %d parses, %d plan builds, %d cache hits; want a hit and nothing else", indexed, text, p, b, h)
					}
				}
			}
		}

		if answered < 25 || failed != 4 {
			t.Errorf("weak coverage: %d statements with rows, %d failing (the four NULL comparisons)", answered, failed)
		}

		// LIMIT is part of the shape: two limits, two entries, and each
		// answers with its own row count whatever the WHERE literal.
		entries := e.Plans.Len()
		for _, c := range []struct{ limit, from, want int }{{3, 0, 3}, {5, 0, 5}, {3, 58, 3}, {5, 59, 5}} {
			text := fmt.Sprintf("SELECT k FROM t WHERE k >= %d ORDER BY k LIMIT %d", c.from, c.limit)
			res, err := e.Execute(text)
			if err != nil {
				t.Fatal(err)
			}
			_, wantRows, _ := rawLiteralPlan(t, e, text)
			if len(res.Rows) != c.want || sequence(res.Rows, nil) != sequence(wantRows, nil) {
				t.Errorf("indexed=%v: %s: %d rows %v, want %v", indexed, text, len(res.Rows), res.Rows, wantRows)
			}
		}
		if got := e.Plans.Len() - entries; got != 2 {
			t.Errorf("indexed=%v: two LIMITs of one shape made %d cache entries, want 2", indexed, got)
		}
	}
}

// TestPlanningIsSingleFlight: when many sessions miss one key together —
// the first statements after an invalidation — one of them plans and the
// rest run its entry, for a prepared statement and for an ad-hoc shape
// alike (ad-hoc statements have no handle to hang a lock on; the lock
// belongs to the key).
func TestPlanningIsSingleFlight(t *testing.T) {
	e := diffEngine(t, true)
	reg := obs.NewRegistry()
	e.Instrument(reg, nil)
	prep := prepare(t, e, "SELECT k, v FROM t WHERE k = $1")
	if _, err := e.Execute("SELECT s FROM t WHERE k < 0"); err != nil {
		t.Fatal(err)
	}
	builds := reg.Counter("plan.builds")
	const sessions = 8
	for round := 0; round < 25; round++ {
		e.Plans.Invalidate()
		before := builds.Value()
		start := make(chan struct{})
		errs := make(chan error, 2*sessions)
		for g := 0; g < sessions; g++ {
			go func() {
				<-start
				_, err := e.ExecutePrepared(context.Background(), prep, []catalog.Value{int64(g)})
				errs <- err
			}()
			go func() {
				<-start
				_, err := e.Execute(fmt.Sprintf("SELECT s FROM t WHERE k < %d", g-round))
				errs <- err
			}()
		}
		close(start)
		for i := 0; i < 2*sessions; i++ {
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
		}
		if got := builds.Value() - before; got != 2 {
			t.Fatalf("round %d: %d plans built for 2 shapes after an invalidation, want 2", round, got)
		}
	}
}
