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
// spellings, its parameter, and which rows it keeps or fails on.
type pruneConj struct {
	lit, par string
	param    catalog.Value
	holds    func(pruneRow) bool // nil: fails on every row it sees
}

func (g *pruneGen) conj() pruneConj {
	col := []string{"a", "f", "id"}[g.r.Intn(3)]
	ops := []string{"<", "<=", ">", ">=", "=", "!="}
	op := ops[g.r.Intn(len(ops))]
	cell := func(row pruneRow) float64 {
		switch col {
		case "a":
			return float64(row.a)
		case "f":
			return row.f
		}
		return float64(row.id)
	}
	// k is an INT or, with a fraction, a FLOAT within the column's
	// range, where most chains keep some pages and rule out others.
	var k float64
	var lit string
	var param catalog.Value
	switch col {
	case "f":
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
	p := fmt.Sprintf("$%d", g.n+1)
	g.n++
	holds := func(row pruneRow) bool {
		x := cell(row)
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
	if g.r.Intn(4) == 0 { // k op column
		mirror := map[string]string{"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "!=": "!="}[op]
		return pruneConj{lit: lit + " " + mirror + " " + col, par: p + " " + mirror + " " + col, param: param, holds: holds}
	}
	return pruneConj{lit: col + " " + op + " " + lit, par: col + " " + op + " " + p, param: param, holds: holds}
}

type pruneGen struct {
	r *rand.Rand
	n int // parameters spelled so far in the chain
}

// chain is a conjunction of one to three comparisons, sometimes led by
// a conjunct that fails on every row (a division by zero, as costly as
// a comparison, so the planner keeps it first) or by a comparison with
// a NULL parameter. Its param spelling has no literal then.
func (g *pruneGen) chain() (lit, par string, params []catalog.Value, conjs []pruneConj) {
	g.n = 0
	switch g.r.Intn(6) {
	case 0:
		conjs = append(conjs, pruneConj{lit: "id / 0", par: "id / 0"})
	case 1:
		g.n++
		conjs = append(conjs, pruneConj{par: "a > $1", holds: func(pruneRow) bool { return false }})
		params = append(params, nil)
	}
	for n := 1 + g.r.Intn(3); n > 0; n-- {
		c := g.conj()
		conjs = append(conjs, c)
		params = append(params, c.param)
	}
	var lits, pars []string
	for _, c := range conjs {
		lits, pars = append(lits, c.lit), append(pars, c.par)
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
