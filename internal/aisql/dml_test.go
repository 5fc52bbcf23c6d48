package aisql

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"aidb/internal/catalog"
	"aidb/internal/governance"
	"aidb/internal/obs"
	"aidb/internal/plancache"
	"aidb/internal/sql"
	"aidb/internal/storage"
)

// heapImage renders a table's heap exactly: every live row with its
// record id, in heap order. Two equal images mean nothing was touched.
func heapImage(t *testing.T, e *Engine, table string) string {
	t.Helper()
	tab, err := e.Cat.Table(table)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := tab.ScanPages(tab.PageIDs(), func(rid storage.RecordID, r catalog.Row) bool {
		fmt.Fprintf(&sb, "%v %v\n", rid, r)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// heapRows reads every live row of tab through ScanPages.
func heapRows(t testing.TB, tab *catalog.Table) []catalog.Row {
	t.Helper()
	var rows []catalog.Row
	if err := tab.ScanPages(tab.PageIDs(), func(_ storage.RecordID, r catalog.Row) bool {
		rows = append(rows, r)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return rows
}

// rowSet renders a result as a sorted multiset of rows.
func rowSet(rows []catalog.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r)
	}
	sort.Strings(out)
	return out
}

// checkIndexMatchesHeap reads items through the id index and through the
// heap; both must hold the same rows.
func checkIndexMatchesHeap(t *testing.T, e *Engine) {
	t.Helper()
	viaIndex, err := e.Execute("SELECT id, qty, name FROM items WHERE id >= -1000000000")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(explainOptimized(t, e, "SELECT id, qty, name FROM items WHERE id >= -1000000000"), "IndexScan") {
		t.Fatal("index read did not use the index")
	}
	tab, _ := e.Cat.Table("items")
	heap := heapRows(t, tab)
	if got, want := fmt.Sprint(rowSet(viaIndex.Rows)), fmt.Sprint(rowSet(heap)); got != want {
		t.Errorf("index and heap disagree:\nindex %s\nheap  %s", got, want)
	}
}

func prepare(t testing.TB, e *Engine, q string) *Prepared {
	t.Helper()
	stmt, err := sql.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	p, err := e.Prepare("p", stmt)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestUpdateUnknownColumnFailsAtPlanTime: a SET on a column the table
// does not have is an error — ad hoc, at PREPARE, and under EXPLAIN —
// not a silently ignored clause.
func TestUpdateUnknownColumnFailsAtPlanTime(t *testing.T) {
	e := seedIndexed(t, 20)
	before := heapImage(t, e, "items")
	if _, err := e.Execute("UPDATE items SET ghost = 1, qty = 0 WHERE id = 3"); err == nil {
		t.Error("UPDATE with an unknown SET column succeeded")
	}
	if _, err := e.Execute("EXPLAIN UPDATE items SET ghost = 1"); err == nil {
		t.Error("EXPLAIN UPDATE with an unknown SET column succeeded")
	}
	stmt, _ := sql.Parse("UPDATE items SET ghost = $1")
	if _, err := e.Prepare("p", stmt); err == nil {
		t.Error("PREPARE of an UPDATE with an unknown SET column succeeded")
	}
	if heapImage(t, e, "items") != before {
		t.Error("a failed UPDATE changed the table")
	}
}

// TestFailedDMLChangesNothing: when any row's WHERE, SET expression or
// stored type fails, the statement fails — and fails before a single
// row is touched, although rows before the failing one matched.
func TestFailedDMLChangesNothing(t *testing.T) {
	for _, tc := range []struct {
		name, stmt string
		args       []catalog.Value
	}{
		{"WHERE fails midway (UPDATE)", "UPDATE items SET qty = 0 WHERE 100 / (id - 7) > 0", nil},
		{"WHERE fails midway (DELETE)", "DELETE FROM items WHERE 100 / (id - 7) > 0", nil},
		{"WHERE compares across types", "DELETE FROM items WHERE name > 5", nil},
		{"SET expression fails midway", "UPDATE items SET qty = 100 / (id - 7)", nil},
		{"SET value does not fit the column", "UPDATE items SET name = id WHERE id < 10", nil},
		{"SET parameter is NULL", "UPDATE items SET qty = $1 WHERE id < 10", []catalog.Value{nil}},
		{"SET fails on an indexed range", "UPDATE items SET id = id / (id - 7) WHERE id BETWEEN 5 AND 9", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := seedIndexed(t, 300)
			before := heapImage(t, e, "items")
			var err error
			if tc.args != nil {
				_, err = e.ExecutePrepared(context.Background(), prepare(t, e, tc.stmt), tc.args)
			} else {
				_, err = e.Execute(tc.stmt)
			}
			if err == nil {
				t.Fatal("statement succeeded")
			}
			if heapImage(t, e, "items") != before {
				t.Error("the failed statement changed the table")
			}
			checkIndexMatchesHeap(t, e)
		})
	}
}

// TestDMLRunsOnThePipeline: UPDATE and DELETE are plans like any other:
// they count the rows they read, show up in the statement store under
// their own kind, stop on a cancelled context and on a blown memory
// budget — in both cases with the table untouched.
func TestDMLRunsOnThePipeline(t *testing.T) {
	e := seedIndexed(t, 3000)
	reg := obs.NewRegistry()
	e.Instrument(reg, obs.NewTracer(4))
	scanned := reg.Counter("exec.rows_scanned")

	at := scanned.Value()
	if _, err := e.Execute("UPDATE items SET qty = qty + 1 WHERE qty = 3"); err != nil {
		t.Fatal(err)
	}
	if got := scanned.Value() - at; got != 3000 {
		t.Errorf("unindexed UPDATE scanned %d rows, want 3000", got)
	}
	at = scanned.Value()
	if _, err := e.Execute("DELETE FROM items WHERE id BETWEEN 100 AND 109"); err != nil {
		t.Fatal(err)
	}
	if got := scanned.Value() - at; got != 10 {
		t.Errorf("indexed DELETE scanned %d rows, want 10", got)
	}
	stats := func() map[string]obs.StatementStat {
		byFP := map[string]obs.StatementStat{}
		for _, s := range e.Stmts().Snapshot() {
			byFP[s.Fingerprint] = s
		}
		return byFP
	}
	byFP := stats()
	if s := byFP["UPDATE(Filter(Scan(items)))"]; s.Calls != 1 || !strings.HasPrefix(s.Query, "UPDATE items") {
		t.Errorf("UPDATE not in the statement store: %+v", byFP)
	}
	if s := byFP["DELETE(Filter(IndexScan(items.id)))"]; s.Calls != 1 {
		t.Errorf("DELETE not in the statement store: %+v", byFP)
	}

	before := heapImage(t, e, "items")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.ExecutePrepared(ctx, prepare(t, e, "DELETE FROM items WHERE qty = $1"), []catalog.Value{int64(5)}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled DELETE: %v", err)
	}
	e.MemLimit = 4 << 10
	if _, err := e.Execute("UPDATE items SET qty = 0"); !errors.Is(err, governance.ErrMemBudget) {
		t.Errorf("UPDATE over a 4 KB budget: %v", err)
	}
	e.MemLimit = 0
	if s := stats()["UPDATE(Scan(items))"]; s.Sheds != 1 {
		t.Errorf("budget-aborted UPDATE not recorded as shed: %+v", s)
	}
	if heapImage(t, e, "items") != before {
		t.Error("an aborted statement changed the table")
	}
}

// TestExplainDML: EXPLAIN shows a DML plan without running it; EXPLAIN
// ANALYZE runs it and reports the rows it changed.
func TestExplainDML(t *testing.T) {
	e := seedIndexed(t, 200)
	before := heapImage(t, e, "items")
	res, err := e.Execute("EXPLAIN UPDATE items SET qty = 0 WHERE id = 5")
	if err != nil {
		t.Fatal(err)
	}
	// As it will run: SET and WHERE literals are parameters.
	want := "Update items SET qty = $1\n  Filter (id = $2)\n    IndexScan items.id ∈ [$2, $2]\n"
	if got := res.Rows[0][0].(string); got != want {
		t.Errorf("EXPLAIN UPDATE:\n%s\nwant:\n%s", got, want)
	}
	if heapImage(t, e, "items") != before {
		t.Error("EXPLAIN ran the UPDATE")
	}
	res, err = e.Execute("EXPLAIN ANALYZE DELETE FROM items WHERE id BETWEEN 10 AND 19")
	if err != nil {
		t.Fatal(err)
	}
	if op, rows := res.Rows[0][0].(string), res.Rows[0][2].(int64); op != "Delete items" || rows != 10 {
		t.Errorf("EXPLAIN ANALYZE DELETE root = %q with %d rows, want Delete items with 10", op, rows)
	}
	if left, _ := e.Execute("SELECT id FROM items WHERE id BETWEEN 0 AND 29"); len(left.Rows) != 20 {
		t.Errorf("EXPLAIN ANALYZE DELETE left %d of rows 0..29, want 20", len(left.Rows))
	}
	if _, err := e.Execute("EXPLAIN INSERT INTO items VALUES (1, 1, 'x')"); err == nil {
		t.Error("EXPLAIN INSERT should be rejected")
	}
}

// TestPreparedDMLUsesThePlanCache: a prepared UPDATE is planned once,
// cached like a prepared SELECT, and replanned — onto a new index —
// after DDL invalidates the cache.
func TestPreparedDMLUsesThePlanCache(t *testing.T) {
	e := NewEngine()
	reg := obs.NewRegistry()
	e.Instrument(reg, nil)
	e.Plans = plancache.New(0)
	if _, err := e.ExecuteScript("CREATE TABLE items (id INT, qty INT, name TEXT); INSERT INTO items VALUES (1, 1, 'a'), (2, 2, 'b')"); err != nil {
		t.Fatal(err)
	}
	upd := prepare(t, e, "UPDATE items SET qty = $2 WHERE id = $1")
	const key = "UPDATE items SET qty = $2 WHERE (id = $1)" // an AST handle is keyed by its deparse
	ent := e.Plans.Lookup(key)
	if ent == nil || ent.Fingerprint != "UPDATE(Filter(Scan(items)))" {
		t.Fatalf("prepared UPDATE not cached under %q: %+v", key, ent)
	}
	builds := reg.Counter("plan.builds").Value()
	for i := int64(0); i < 5; i++ {
		if _, err := e.ExecutePrepared(context.Background(), upd, []catalog.Value{int64(1), 10 + i}); err != nil {
			t.Fatal(err)
		}
	}
	if got := reg.Counter("plan.builds").Value(); got != builds {
		t.Errorf("5 executes planned %d more times, want 0", got-builds)
	}
	if _, err := e.Execute("CREATE INDEX idx_id ON items (id)"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.ExecutePrepared(context.Background(), upd, []catalog.Value{int64(2), int64(20)}); err != nil {
		t.Fatal(err)
	}
	if fp := upd.Fingerprint(); fp != "UPDATE(Filter(IndexScan(items.id)))" {
		t.Errorf("after CREATE INDEX the prepared UPDATE runs %s", fp)
	}
	res, _ := e.Execute("SELECT id, qty FROM items")
	if got := fmt.Sprint(rowSet(res.Rows)); got != "[[1 14] [2 20]]" {
		t.Errorf("table after the updates: %s", got)
	}
}

// TestPointDMLReadsOnlyItsRows is the access-path count assertion: on a
// 20 000-row indexed table a prepared point get, UPDATE and DELETE each
// read at most the rows under their key, not the table.
func TestPointDMLReadsOnlyItsRows(t *testing.T) {
	e := benchEngine(t, 20000, true)
	reg := obs.NewRegistry()
	e.Instrument(reg, nil)
	e.Plans = plancache.New(0)
	scanned := reg.Counter("exec.rows_scanned")
	for _, q := range []string{
		"SELECT id, qty, name FROM items WHERE id = $1",
		"UPDATE items SET qty = 77 WHERE id = $1",
		"DELETE FROM items WHERE id = $1",
	} {
		p := prepare(t, e, q)
		for i := 0; i < 2; i++ { // first execute, then the plan-cache hit
			at := scanned.Value()
			if _, err := e.ExecutePrepared(context.Background(), p, []catalog.Value{int64(12345 + i)}); err != nil {
				t.Fatal(err)
			}
			if got := scanned.Value() - at; got < 1 || got > 2 {
				t.Errorf("%s: execute %d scanned %d rows, want 1..2", q, i, got)
			}
		}
	}
	if res, _ := e.Execute("SELECT COUNT(*) FROM items"); res.Rows[0][0].(int64) != 19998 {
		t.Errorf("rows left = %v, want 19998", res.Rows[0][0])
	}
}
