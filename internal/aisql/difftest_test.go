package aisql

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"aidb/internal/catalog"
	"aidb/internal/plancache"
)

// Differential test for the access path (the first slice of ROADMAP item
// 1). A seeded generator emits predicates over an indexed Int column k
// and a non-indexed one v; every predicate runs as literal text and as
// $N placeholders, on an engine without the index and one with it, ad
// hoc and through PREPARE/EXECUTE (first execute and plan-cache hit),
// at Parallelism 1 and 4 — and every run must give the same multiset of
// rows, or fail alike. The same predicates then drive UPDATE and DELETE
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
