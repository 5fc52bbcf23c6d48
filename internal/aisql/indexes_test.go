package aisql

import (
	"fmt"
	"strings"
	"testing"

	"aidb/internal/plan"
	"aidb/internal/sql"
)

// explainOptimized renders the plan exactly as the engine's query path
// builds it (predicate reordering + index selection applied).
func explainOptimized(t *testing.T, e *Engine, q string) string {
	t.Helper()
	stmt, err := sql.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	p, err := e.buildPlan(stmt, nil)
	if err != nil {
		t.Fatal(err)
	}
	return plan.Explain(p)
}

func seedIndexed(t *testing.T, n int) *Engine {
	t.Helper()
	e := NewEngine()
	if _, err := e.Execute("CREATE TABLE items (id INT, qty INT, name TEXT)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := e.Execute(fmt.Sprintf("INSERT INTO items VALUES (%d, %d, 'n%d')", i, i%10, i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Execute("CREATE INDEX idx_id ON items (id)"); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestCreateIndexAndQuery(t *testing.T) {
	e := seedIndexed(t, 500)
	res, err := e.Execute("SELECT id FROM items WHERE id BETWEEN 100 AND 109")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 10 {
		t.Fatalf("rows = %d, want 10", len(res.Rows))
	}
	// Verify the planner actually chose the index.
	res, err = e.Execute("EXPLAIN SELECT id FROM items WHERE id BETWEEN 100 AND 109")
	if err != nil {
		t.Fatal(err)
	}
	_ = res // EXPLAIN output does not run UseIndexes; check equality query below instead.
	res, err = e.Execute("SELECT name FROM items WHERE id = 42")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].(string) != "n42" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestIndexErrors(t *testing.T) {
	e := seedIndexed(t, 10)
	if _, err := e.Execute("CREATE INDEX idx2 ON ghost (id)"); err == nil {
		t.Error("index on missing table should fail")
	}
	if _, err := e.Execute("CREATE INDEX idx3 ON items (ghostcol)"); err == nil {
		t.Error("index on missing column should fail")
	}
	if _, err := e.Execute("CREATE INDEX idx4 ON items (name)"); err == nil {
		t.Error("index on TEXT column should fail")
	}
	if _, err := e.Execute("CREATE INDEX idx5 ON items (id)"); err == nil {
		t.Error("duplicate index should fail")
	}
}

func TestIndexStaysInSyncUnderDML(t *testing.T) {
	e := seedIndexed(t, 200)
	check := func(q string, want int) {
		t.Helper()
		res, err := e.Execute(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != want {
			t.Fatalf("%s: rows = %d, want %d", q, len(res.Rows), want)
		}
	}
	// Insert new rows after index creation.
	e.Execute("INSERT INTO items VALUES (1000, 1, 'late'), (1001, 2, 'later')")
	check("SELECT id FROM items WHERE id >= 1000", 2)
	// Delete indexed rows.
	e.Execute("DELETE FROM items WHERE id BETWEEN 0 AND 49")
	check("SELECT id FROM items WHERE id BETWEEN 0 AND 49", 0)
	check("SELECT id FROM items WHERE id BETWEEN 50 AND 59", 10)
	// Update moves a row's key.
	e.Execute("UPDATE items SET id = 5000 WHERE id = 60")
	check("SELECT id FROM items WHERE id = 60", 0)
	check("SELECT id FROM items WHERE id = 5000", 1)
}

func TestIndexAgreesWithFullScan(t *testing.T) {
	e := seedIndexed(t, 300)
	// qty is unindexed; id is indexed. Same predicate through both paths
	// must agree.
	noIdx := NewEngine()
	noIdx.Execute("CREATE TABLE items (id INT, qty INT, name TEXT)")
	for i := 0; i < 300; i++ {
		noIdx.Execute(fmt.Sprintf("INSERT INTO items VALUES (%d, %d, 'n%d')", i, i%10, i))
	}
	for _, q := range []string{
		"SELECT COUNT(*) FROM items WHERE id < 50",
		"SELECT COUNT(*) FROM items WHERE id >= 290",
		"SELECT COUNT(*) FROM items WHERE id BETWEEN 10 AND 20 AND qty = 5",
		"SELECT SUM(qty) FROM items WHERE id > 100 AND id <= 200",
	} {
		a, err := e.Execute(q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := noIdx.Execute(q)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(a.Rows) != fmt.Sprint(b.Rows) {
			t.Errorf("%s: indexed %v vs scan %v", q, a.Rows, b.Rows)
		}
	}
}

func TestIndexWithNegativeValues(t *testing.T) {
	e := NewEngine()
	e.Execute("CREATE TABLE nums (v INT)")
	for i := -50; i <= 50; i++ {
		e.Execute(fmt.Sprintf("INSERT INTO nums VALUES (%d)", i))
	}
	if _, err := e.Execute("CREATE INDEX idx_v ON nums (v)"); err != nil {
		t.Fatal(err)
	}
	res, err := e.Execute("SELECT COUNT(*) FROM nums WHERE v BETWEEN -10 AND 10")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].(int64) != 21 {
		t.Fatalf("count = %v, want 21", res.Rows[0][0])
	}
	res, _ = e.Execute("SELECT COUNT(*) FROM nums WHERE v < 0")
	if res.Rows[0][0].(int64) != 50 {
		t.Fatalf("negatives = %v, want 50", res.Rows[0][0])
	}
}

func TestIndexScanReadsFewerRows(t *testing.T) {
	// The point of the index: a selective query must not scan the heap.
	e := seedIndexed(t, 2000)
	res, err := e.Execute("SELECT id FROM items WHERE id = 1234")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
	// Row-count accounting is inside the executor; assert via EXPLAIN on
	// the optimized plan path instead: build through the engine and check
	// the plan description mentions IndexScan.
	expl := explainOptimized(t, e, "SELECT id FROM items WHERE id = 1234")
	if !strings.Contains(expl, "IndexScan") {
		t.Errorf("optimized plan does not use the index:\n%s", expl)
	}
}

func TestDropTableDropsIndexes(t *testing.T) {
	e := seedIndexed(t, 10)
	if _, err := e.Execute("DROP TABLE items"); err != nil {
		t.Fatal(err)
	}
	e.Execute("CREATE TABLE items (id INT)")
	if _, err := e.Execute("CREATE INDEX idx_id ON items (id)"); err != nil {
		t.Errorf("index name should be free after DROP TABLE: %v", err)
	}
}

// TestIndexedReadsSurviveConcurrentDML: the index fetch collects record
// ids under the index lock and reads the rows after releasing it, so a
// row deleted in between must count as gone, not fail the query. One
// goroutine runs indexed range SELECTs while another deletes and
// re-inserts rows in that range; run under -race.
func TestIndexedReadsSurviveConcurrentDML(t *testing.T) {
	e := seedIndexed(t, 400)
	if !strings.Contains(explainOptimized(t, e, "SELECT id FROM items WHERE id BETWEEN 100 AND 199"), "IndexScan") {
		t.Fatal("the reader's query does not use the index")
	}
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			res, err := e.Execute("SELECT id FROM items WHERE id BETWEEN 100 AND 199")
			if err != nil {
				done <- err
				return
			}
			if len(res.Rows) > 100 {
				done <- fmt.Errorf("range holds 100 keys, read %d rows", len(res.Rows))
				return
			}
		}
	}()
	for round := 0; round < 30; round++ {
		for id := 100; id < 200; id++ {
			if _, err := e.Execute(fmt.Sprintf("DELETE FROM items WHERE id = %d", id)); err != nil {
				t.Fatal(err)
			}
			if _, err := e.Execute(fmt.Sprintf("INSERT INTO items VALUES (%d, %d, 'r%d')", id, round, round)); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	if err := <-done; err != nil {
		t.Fatalf("indexed read failed under concurrent DML: %v", err)
	}
	checkIndexMatchesHeap(t, e)
}

// TestIndexSeqWrapKeepsDuplicates: the low bits of the insert counter
// pick a duplicate's slot in its value's band; once the counter has
// wrapped, those bits can name a slot a live duplicate still holds, and
// the insert must move on to a free one instead of overwriting it.
func TestIndexSeqWrapKeepsDuplicates(t *testing.T) {
	e := seedIndexed(t, 50) // qty = id % 10: five rows per value
	if _, err := e.Execute("CREATE INDEX idx_qty ON items (qty)"); err != nil {
		t.Fatal(err)
	}
	si := e.indexFor("items", 1)
	si.next = 1 << dupBits // wrapped: the next inserts draw seq 0, 1, 2, ...
	for i := 0; i < 20; i++ {
		if _, err := e.Execute(fmt.Sprintf("INSERT INTO items VALUES (%d, 3, 'late')", 1000+i)); err != nil {
			t.Fatal(err)
		}
	}
	res, err := e.Execute("SELECT id FROM items WHERE qty = 3")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(explainOptimized(t, e, "SELECT id FROM items WHERE qty = 3"), "IndexScan items.qty") {
		t.Fatal("query does not use the qty index")
	}
	if len(res.Rows) != 25 {
		t.Errorf("index on qty returns %d rows with qty = 3, want 25 (live duplicates overwritten)", len(res.Rows))
	}
}
