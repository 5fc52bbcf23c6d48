package aisql

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"aidb/internal/catalog"
	"aidb/internal/obs"
)

// pruneRow is a row of TestPrunedScanMatchesFilter's table z as the test
// keeps it: a rises with id, f falls, and a few rows stray far off, so
// most pages' zones are narrow and some wide.
type pruneRow struct {
	id, a int64
	f     float64
}

func pruneRowFor(r *rand.Rand, id int64) pruneRow {
	row := pruneRow{id: id, a: id/10 + int64(r.Intn(5)), f: float64(3000-id) / 4}
	switch r.Intn(60) {
	case 0:
		row.a = int64(r.Intn(2_000_000)) - 1_000_000
	case 1:
		row.f = float64(r.Intn(40000)) - 20000.25
	}
	return row
}

// pruneConj is one conjunct of a generated chain: its literal and $N
// spellings, its parameters, and which rows it keeps or fails on.
type pruneConj struct {
	lit, par string
	params   []catalog.Value
	holds    func(pruneRow) bool // nil: fails on every row it sees
}

// pruneCell is column col of row as a number.
func pruneCell(row pruneRow, col string) float64 {
	switch col {
	case "a":
		return float64(row.a)
	case "f":
		return row.f
	}
	return float64(row.id)
}

// number draws a constant for col: an INT or, with a fraction, a FLOAT
// within the column's range, where most chains keep some pages and
// rule out others, or now and then one below every value, where a
// comparison keeps every page or none. It returns the value, its
// literal and the $N spelling with the parameter it binds.
func (g *pruneGen) number(col string) (k float64, lit, par string, param catalog.Value) {
	switch {
	case g.r.Intn(10) == 0:
		k = -2_000_000
	case col == "f":
		k = float64(g.r.Intn(3200)-100) / 4
	default:
		k = float64(g.r.Intn(3200) - 100)
		if col == "a" {
			k = float64(g.r.Intn(330) - 10)
		}
	}
	if col != "f" && g.r.Intn(3) == 0 {
		k += 0.5
	}
	if g.r.Intn(3) == 0 || k != float64(int64(k)) {
		lit, param = fmt.Sprintf("%.2f", k), k
	} else {
		lit, param = fmt.Sprint(int64(k)), int64(k)
	}
	g.n++
	return k, lit, fmt.Sprintf("$%d", g.n), param
}

func (g *pruneGen) conj() pruneConj {
	col := []string{"a", "f", "id"}[g.r.Intn(3)]
	ops := []string{"<", "<=", ">", ">=", "=", "!="}
	op := ops[g.r.Intn(len(ops))]
	k, lit, p, param := g.number(col)
	holds := func(row pruneRow) bool {
		x := pruneCell(row, col)
		switch op {
		case "<":
			return x < k
		case "<=":
			return x <= k
		case ">":
			return x > k
		case ">=":
			return x >= k
		case "=":
			return x == k
		}
		return x != k
	}
	params := []catalog.Value{param}
	if g.r.Intn(4) == 0 { // k op column
		mirror := map[string]string{"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "!=": "!="}[op]
		return pruneConj{lit: lit + " " + mirror + " " + col, par: p + " " + mirror + " " + col, params: params, holds: holds}
	}
	return pruneConj{lit: col + " " + op + " " + lit, par: col + " " + op + " " + p, params: params, holds: holds}
}

// between is `col BETWEEN lo AND hi`, which no zone reads: it ends a
// scan's leading run of comparisons.
func (g *pruneGen) between() pruneConj {
	col := []string{"a", "f", "id"}[g.r.Intn(3)]
	lo, loLit, loPar, first := g.number(col)
	hi, hiLit, hiPar, second := g.number(col)
	if hi < lo {
		lo, hi, loLit, hiLit, loPar, hiPar = hi, lo, hiLit, loLit, hiPar, loPar
	}
	return pruneConj{
		lit:    col + " BETWEEN " + loLit + " AND " + hiLit,
		par:    col + " BETWEEN " + loPar + " AND " + hiPar,
		params: []catalog.Value{first, second},
		holds: func(row pruneRow) bool {
			x := pruneCell(row, col)
			return lo <= x && x <= hi
		},
	}
}

// runEnd is a conjunct that ends a scan's leading run of comparisons: a
// comparison of the TEXT column, or a comparison of a number column
// with a string parameter, which fails on every row it sees — so no
// comparison after it may rule out a page.
func (g *pruneGen) runEnd() pruneConj {
	g.n++
	p := fmt.Sprintf("$%d", g.n)
	if g.r.Intn(2) == 0 {
		s, ne := fmt.Sprintf("s%d", g.r.Intn(7)), g.r.Intn(2) == 0
		op := map[bool]string{false: " = ", true: " != "}[ne]
		return pruneConj{lit: "s" + op + "'" + s + "'", par: "s" + op + p, params: []catalog.Value{s},
			holds: func(row pruneRow) bool { return (fmt.Sprintf("s%d", row.id%7) == s) != ne }}
	}
	return pruneConj{lit: "a < 'x'", par: "a < " + p, params: []catalog.Value{"x"}}
}

type pruneGen struct {
	r *rand.Rand
	n int // parameters spelled so far in the chain
}

// chain is a conjunction of one to three comparisons, sometimes led by
// a conjunct that fails on every row (a division by zero, as costly as
// a comparison, so the planner keeps it first) or by a comparison with
// a NULL parameter — its param spelling has no literal then — and
// sometimes with a conjunct that ends the leading run among the
// comparisons. A BETWEEN, costlier than a comparison, comes last, where
// the planner puts it.
func (g *pruneGen) chain() (lit, par string, params []catalog.Value, conjs []pruneConj) {
	g.n = 0
	switch g.r.Intn(6) {
	case 0:
		conjs = append(conjs, pruneConj{lit: "id / 0", par: "id / 0"})
	case 1:
		g.n++
		conjs = append(conjs, pruneConj{par: "a > $1", params: []catalog.Value{nil}, holds: func(pruneRow) bool { return false }})
	}
	n := 1 + g.r.Intn(3)
	end := -1
	if g.r.Intn(4) == 0 {
		end = g.r.Intn(n + 1)
	}
	for i := 0; i <= n; i++ {
		if i == end {
			conjs = append(conjs, g.runEnd())
		}
		if i < n {
			conjs = append(conjs, g.conj())
		}
	}
	if g.r.Intn(4) == 0 {
		conjs = append(conjs, g.between())
	}
	var lits, pars []string
	for _, c := range conjs {
		lits, pars = append(lits, c.lit), append(pars, c.par)
		params = append(params, c.params...)
	}
	if slices.Contains(lits, "") {
		return "", strings.Join(pars, " AND "), params, conjs
	}
	return strings.Join(lits, " AND "), strings.Join(pars, " AND "), params, conjs
}

// pruneWant is what a chain returns from rows: the ids of the rows every
// conjunct holds for, in order, or "error" when a failing conjunct sees
// a row.
func pruneWant(rows []pruneRow, conjs []pruneConj) string {
	var ids []string
	for _, row := range rows {
		keep := true
		for _, c := range conjs {
			if c.holds == nil {
				return "error"
			}
			if !c.holds(row) {
				keep = false
				break
			}
		}
		if keep {
			ids = append(ids, fmt.Sprint(row.id))
		}
	}
	slices.Sort(ids)
	return strings.Join(ids, ",")
}

// pruneGot is what a run returned, spelled as pruneWant spells it.
func pruneGot(rows []catalog.Row, err error) string {
	if err != nil {
		return "error"
	}
	ids := make([]string, len(rows))
	for i, r := range rows {
		ids[i] = fmt.Sprint(r[0])
	}
	slices.Sort(ids)
	return strings.Join(ids, ",")
}

// TestPrunedScanMatchesFilter runs seeded conjunct chains over a table
// whose scans prune pages by their zones, serially and at Parallelism 2,
// ad hoc (a plan-cache miss, then a hit) and prepared, and holds every
// answer to the one computed here from the rows; between chains rows are
// deleted and inserted, so zones widen and row counts fall. A chain led
// by a conjunct that fails must still fail, and one with a NULL
// parameter return nothing.
func TestPrunedScanMatchesFilter(t *testing.T) {
	e := NewEngine()
	reg := obs.NewRegistry()
	e.Instrument(reg, nil)
	r := rand.New(rand.NewSource(33))
	var rows []pruneRow
	insert := func(batch []pruneRow) {
		if len(batch) == 0 {
			return // the churn's delete found no row
		}
		var sb strings.Builder
		sb.WriteString("INSERT INTO z VALUES ")
		for i, row := range batch {
			if i > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, %d, %.2f, 's%d')", row.id, row.a, row.f, row.id%7)
		}
		if _, err := e.Execute(sb.String()); err != nil {
			t.Fatal(err)
		}
		rows = append(rows, batch...)
	}
	if _, err := e.Execute("CREATE TABLE z (id INT, a INT, f FLOAT, s TEXT)"); err != nil {
		t.Fatal(err)
	}
	var load []pruneRow
	for id := int64(0); id < 3000; id++ {
		load = append(load, pruneRowFor(r, id))
	}
	insert(load)

	ctx := context.Background()
	g := &pruneGen{r: r}
	next, errs, empties := int64(3000), 0, 0
	for i := 0; i < 150; i++ {
		lit, par, params, conjs := g.chain()
		want := pruneWant(rows, conjs)
		switch want {
		case "error":
			errs++
		case "":
			empties++
		}
		check := func(how string, got string) {
			t.Helper()
			if got != want {
				t.Fatalf("chain %d, %s: WHERE %s %v\n%s", i, how, par, params, outcomeDiff(got, want))
			}
		}
		for _, workers := range []int{1, 2} {
			e.Parallelism = workers
			if lit != "" {
				for _, turn := range []string{"miss", "hit"} {
					res, err := e.Execute("SELECT id FROM z WHERE " + lit)
					var got []catalog.Row
					if err == nil {
						got = res.Rows
					}
					check(fmt.Sprintf("ad hoc %s, parallelism %d", turn, workers), pruneGot(got, err))
				}
			}
			res, err := e.ExecutePrepared(ctx, prepare(t, e, "SELECT id FROM z WHERE "+par), params)
			var got []catalog.Row
			if err == nil {
				got = res.Rows
			}
			check(fmt.Sprintf("prepared, parallelism %d", workers), pruneGot(got, err))
		}
		if i%10 != 9 {
			continue
		}
		// Churn: delete a run of ids and insert as many new rows.
		lo := int64(r.Intn(int(next)))
		if _, err := e.Execute(fmt.Sprintf("DELETE FROM z WHERE id >= %d AND id < %d", lo, lo+200)); err != nil {
			t.Fatal(err)
		}
		kept := rows[:0]
		for _, row := range rows {
			if row.id < lo || row.id >= lo+200 {
				kept = append(kept, row)
			}
		}
		batch := make([]pruneRow, len(rows)-len(kept))
		rows = kept
		for j := range batch {
			batch[j] = pruneRowFor(r, next)
			batch[j].a = int64(r.Intn(330))
			next++
		}
		insert(batch)
	}
	if errs < 10 || empties < 10 || 150-errs-empties < 50 {
		t.Errorf("weak coverage: %d errors, %d empty answers of 150", errs, empties)
	}
	if reg.Snapshot()["exec.pages_pruned"] == 0 {
		t.Error("no scan pruned a page: the test checks nothing")
	}
}
