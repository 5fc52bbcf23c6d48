package catalog

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"aidb/internal/storage"
)

func testSchema() Schema {
	return Schema{Columns: []Column{
		{Name: "id", Type: Int64},
		{Name: "score", Type: Float64},
		{Name: "name", Type: String},
	}}
}

func TestCreateInsertGet(t *testing.T) {
	c := NewMem()
	tab, err := c.CreateTable("users", testSchema())
	if err != nil {
		t.Fatal(err)
	}
	rid, err := tab.Insert(Row{int64(1), 3.14, "alice"})
	if err != nil {
		t.Fatal(err)
	}
	row, err := tab.Get(rid)
	if err != nil {
		t.Fatal(err)
	}
	if row[0].(int64) != 1 || row[1].(float64) != 3.14 || row[2].(string) != "alice" {
		t.Errorf("row = %v", row)
	}
}

func TestInsertTypeMismatch(t *testing.T) {
	c := NewMem()
	tab, _ := c.CreateTable("t", testSchema())
	if _, err := tab.Insert(Row{"wrong", 1.0, "x"}); err == nil {
		t.Error("expected type error")
	}
	if _, err := tab.Insert(Row{int64(1)}); err == nil {
		t.Error("expected arity error")
	}
}

func TestDuplicateTable(t *testing.T) {
	c := NewMem()
	if _, err := c.CreateTable("t", testSchema()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateTable("t", testSchema()); err == nil {
		t.Error("expected duplicate-table error")
	}
}

func TestDropTable(t *testing.T) {
	c := NewMem()
	c.CreateTable("t", testSchema())
	if err := c.DropTable("t"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Table("t"); err == nil {
		t.Error("dropped table still visible")
	}
	if err := c.DropTable("t"); err == nil {
		t.Error("double drop should fail")
	}
}

func TestScanSpansPages(t *testing.T) {
	c := NewMem()
	tab, _ := c.CreateTable("big", testSchema())
	const n = 2000 // enough rows to span many 4KB pages
	for i := 0; i < n; i++ {
		if _, err := tab.Insert(Row{int64(i), float64(i), "row"}); err != nil {
			t.Fatal(err)
		}
	}
	if tab.NumRows() != n {
		t.Fatalf("NumRows = %d, want %d", tab.NumRows(), n)
	}
	count := 0
	sum := int64(0)
	err := tab.Scan(func(_ storage.RecordID, r Row) bool {
		count++
		sum += r[0].(int64)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Errorf("scanned %d rows, want %d", count, n)
	}
	if want := int64(n) * (n - 1) / 2; sum != want {
		t.Errorf("sum = %d, want %d", sum, want)
	}
}

func TestScanEarlyStop(t *testing.T) {
	c := NewMem()
	tab, _ := c.CreateTable("t", testSchema())
	for i := 0; i < 100; i++ {
		tab.Insert(Row{int64(i), 0.0, ""})
	}
	count := 0
	tab.Scan(func(_ storage.RecordID, r Row) bool {
		count++
		return count < 10
	})
	if count != 10 {
		t.Errorf("scan visited %d rows after early stop, want 10", count)
	}
}

func TestDeleteHidesRow(t *testing.T) {
	c := NewMem()
	tab, _ := c.CreateTable("t", testSchema())
	rid, _ := tab.Insert(Row{int64(1), 1.0, "x"})
	tab.Insert(Row{int64(2), 2.0, "y"})
	if err := tab.Delete(rid); err != nil {
		t.Fatal(err)
	}
	if tab.NumRows() != 1 {
		t.Errorf("NumRows = %d after delete, want 1", tab.NumRows())
	}
	if _, err := tab.Get(rid); !errors.Is(err, storage.ErrRecordDeleted) {
		t.Errorf("Get deleted: %v", err)
	}
	rows, _ := tab.AllRows()
	if len(rows) != 1 || rows[0][0].(int64) != 2 {
		t.Errorf("AllRows = %v", rows)
	}
}

// TestChurnDoesNotGrowTable: deleting the oldest row and inserting a new
// one of the same size, over and over, must keep the table at its page
// count (dead space is reused once the last page is full) and its rows
// intact.
func TestChurnDoesNotGrowTable(t *testing.T) {
	c := NewMem()
	tab, _ := c.CreateTable("t", testSchema())
	var rids []storage.RecordID
	for i := 0; i < 1000; i++ {
		rid, err := tab.Insert(Row{int64(i), 0.5, "payload"})
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	pages := len(tab.PageIDs())
	for i := 1000; i < 21000; i++ {
		if err := tab.Delete(rids[0]); err != nil {
			t.Fatal(err)
		}
		rid, err := tab.Insert(Row{int64(i), 0.5, "payload"})
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids[1:], rid)
	}
	if got := len(tab.PageIDs()); got > pages+1 {
		t.Errorf("table grew from %d to %d pages under balanced churn", pages, got)
	}
	seen := map[int64]bool{}
	tab.Scan(func(_ storage.RecordID, r Row) bool {
		seen[r[0].(int64)] = true
		return true
	})
	if len(seen) != 1000 || tab.NumRows() != 1000 {
		t.Fatalf("%d distinct rows scanned, NumRows %d, want 1000", len(seen), tab.NumRows())
	}
	for i := int64(20000); i < 21000; i++ {
		if !seen[i] {
			t.Fatalf("row %d lost", i)
		}
	}
	for i, rid := range rids {
		if r, err := tab.Get(rid); err != nil || r[0].(int64) != int64(20000+i) {
			t.Fatalf("Get(%v) = %v, %v", rid, r, err)
		}
	}
}

// TestDeleteIfChecksTheRow: record ids are reused, so a delete that
// names the row it read must not remove a different row that has since
// taken the slot.
func TestDeleteIfChecksTheRow(t *testing.T) {
	c := NewMem()
	tab, _ := c.CreateTable("t", testSchema())
	row := Row{int64(1), 1.0, "x"}
	rid, _ := tab.Insert(row)
	if err := tab.DeleteIf(rid, Row{int64(1), 1.0, "y"}); !errors.Is(err, storage.ErrRecordDeleted) {
		t.Fatalf("DeleteIf with a different row: %v", err)
	}
	if tab.NumRows() != 1 {
		t.Fatal("a mismatched DeleteIf removed the row")
	}
	if err := tab.DeleteIf(rid, row); err != nil {
		t.Fatal(err)
	}
	if err := tab.DeleteIf(rid, row); !errors.Is(err, storage.ErrRecordDeleted) {
		t.Fatalf("DeleteIf of a deleted row: %v", err)
	}
}

// Property: rows of every type round-trip through encode/decode.
func TestRowRoundTripProperty(t *testing.T) {
	schema := testSchema()
	f := func(id int64, score float64, name string) bool {
		b, err := encodeRow(&schema, Row{id, score, name})
		if err != nil {
			return false
		}
		var v [3]Vector
		if err := decodeCells(&schema, b, []*Vector{&v[0], &v[1], &v[2]}); err != nil {
			return false
		}
		row := Row{v[0].I[0], v[1].F[0], v[2].S[0]}
		// NaN != NaN; compare bit patterns via equality only for non-NaN.
		if score == score && row[1].(float64) != score {
			return false
		}
		return row[0].(int64) == id && row[2].(string) == name
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecodeTruncated(t *testing.T) {
	schema := testSchema()
	b, _ := encodeRow(&schema, Row{int64(1), 2.0, "hello"})
	for cut := 0; cut < len(b); cut++ {
		if err := decodeCells(&schema, b[:cut], []*Vector{{}, {}, {}}); err == nil {
			t.Fatalf("decode of %d/%d bytes should fail", cut, len(b))
		}
		if err := decodeCells(&schema, b[:cut], make([]*Vector, 3)); err == nil {
			t.Fatalf("decode of %d/%d bytes, reading no column, should fail", cut, len(b))
		}
	}
}

// TestScanDecodesOnlyNeededColumns: the vector decoder fills exactly the
// columns it is given vectors for, whatever types it steps over, and
// allocates nothing per row once its vectors have room; by page or by
// record id it reads the same rows.
func TestScanDecodesOnlyNeededColumns(t *testing.T) {
	c := NewMem()
	tab, err := c.CreateTable("t", testSchema()) // id INT, score FLOAT, name TEXT
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if _, err := tab.Insert(Row{int64(1000 + i), float64(i) + 0.5, fmt.Sprintf("name-%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	decode := func(need []bool, byRecord bool) ([]Vector, []storage.RecordID) {
		vs := make([]Vector, 3)
		cols := make([]*Vector, 3)
		for i := range cols {
			if need[i] {
				cols[i] = &vs[i]
			}
		}
		var rids []storage.RecordID
		if byRecord {
			if err := tab.Scan(func(rid storage.RecordID, _ Row) bool { rids = append(rids, rid); return true }); err != nil {
				t.Fatal(err)
			}
			if n, err := tab.DecodeRecords(rids, cols, nil); err != nil || n != 300 {
				t.Fatalf("DecodeRecords: %d rows, %v", n, err)
			}
			return vs, rids
		}
		for _, id := range tab.PageIDs() {
			if _, err := tab.DecodePage(id, cols, &rids); err != nil {
				t.Fatal(err)
			}
		}
		return vs, rids
	}
	for mask := 0; mask < 8; mask++ {
		need := []bool{mask&1 != 0, mask&2 != 0, mask&4 != 0}
		for _, byRecord := range []bool{false, true} {
			vs, rids := decode(need, byRecord)
			if len(rids) != 300 {
				t.Fatalf("need %v: %d record ids", need, len(rids))
			}
			lens := []int{len(vs[0].I), len(vs[1].F), len(vs[2].S)}
			for col := range need {
				if want := map[bool]int{true: 300, false: 0}[need[col]]; lens[col] != want {
					t.Fatalf("need %v by record %v: column %d has %d cells, want %d", need, byRecord, col, lens[col], want)
				}
			}
			for i := 0; i < 300; i++ {
				if (need[0] && vs[0].I[i] != int64(1000+i)) || (need[1] && vs[1].F[i] != float64(i)+0.5) ||
					(need[2] && vs[2].S[i] != fmt.Sprintf("name-%d", i)) {
					t.Fatalf("need %v by record %v: row %d = %v %v %v", need, byRecord, i, vs[0].I, vs[1].F, vs[2].S)
				}
			}
		}
	}

	// Refilling vectors that have room allocates only whole string
	// buffers, never per row: stepping over every column allocates nothing.
	var v [3]Vector
	cols := []*Vector{&v[0], &v[1], &v[2]}
	pages := tab.PageIDs()
	scan := func(cols []*Vector) {
		for i := range v {
			v[i].Reset()
		}
		for _, id := range pages {
			if _, err := tab.DecodePage(id, cols, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	perScan := func(cols []*Vector) float64 { return testing.AllocsPerRun(5, func() { scan(cols) }) }
	if none, all := perScan(make([]*Vector, 3)), perScan(cols); all > 5 || none != 0 {
		t.Errorf("allocations per 300-row scan: %v decoding every column, %v decoding none; want a few and 0", all, none)
	}
	// Strings outlive the vector they were decoded into.
	kept := v[2].S[7]
	scan(cols)
	if kept != "name-7" {
		t.Errorf("a string kept from a reset vector reads %q", kept)
	}
	if _, err := tab.DecodePage(tab.PageIDs()[0], cols[:1], nil); err == nil {
		t.Error("a column set of the wrong width must be rejected")
	}
}

// TestConcurrentScansAndChurn: scans by page and by record id run
// against inserts, deletes and FlushAll on a pool far smaller than the
// table, so every scan misses and evicted page memory is reused under
// it; every row any scan sees must be a row some insert wrote, whole.
func TestConcurrentScansAndChurn(t *testing.T) {
	pool, err := storage.NewBufferPool(storage.NewMemDisk(), 16)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := New(pool).CreateTable("t", testSchema())
	if err != nil {
		t.Fatal(err)
	}
	row := func(i int) Row {
		return Row{int64(i), float64(i) * 0.5, fmt.Sprintf("row-%d-%s", i, strings.Repeat("x", i%40))}
	}
	check := func(id int64, score float64, name string) error {
		if want := row(int(id)); score != want[1] || name != want[2] {
			return fmt.Errorf("row %d read as (%v, %q)", id, score, name)
		}
		return nil
	}
	var initial []storage.RecordID
	for i := 0; i < 2000; i++ {
		rid, err := tab.Insert(row(i))
		if err != nil {
			t.Fatal(err)
		}
		initial = append(initial, rid)
	}
	// A fixed amount of churn, so the test's length does not depend on
	// how the scheduler shares the CPU out; scans run until it is done.
	const churns = 1500
	errs := make(chan error, 3)
	var wg sync.WaitGroup
	var churning sync.WaitGroup
	churn := func(fn func(i int) error) {
		defer churning.Done()
		for i := 0; i < churns; i++ {
			if err := fn(i); err != nil {
				errs <- err
				return
			}
		}
	}
	churning.Add(2)
	go churn(func(i int) error { _, err := tab.Insert(row(2000 + i)); return err })
	go churn(func(i int) error { return tab.Delete(initial[i]) })
	churned := make(chan struct{})
	go func() { churning.Wait(); close(churned) }()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-churned:
				return
			default:
			}
			if err := pool.FlushAll(); err != nil {
				errs <- err
				return
			}
		}
	}()
	for round := 0; ; round++ {
		var v [3]Vector
		cols := []*Vector{&v[0], &v[1], &v[2]}
		var rids []storage.RecordID
		for _, id := range tab.PageIDs() {
			if _, err := tab.DecodePage(id, cols, &rids); err != nil {
				t.Fatal(err)
			}
		}
		for i, id := range v[0].I {
			if err := check(id, v[1].F[i], v[2].S[i]); err != nil {
				t.Fatal(err)
			}
		}
		for i := range v {
			v[i].Reset()
		}
		if _, err := tab.DecodeRecords(rids, cols, nil); err != nil {
			t.Fatal(err)
		}
		for i, id := range v[0].I {
			if err := check(id, v[1].F[i], v[2].S[i]); err != nil {
				t.Fatal(err)
			}
		}
		select {
		case <-churned:
		default:
			continue
		}
		if round >= 2 {
			break
		}
	}
	wg.Wait()
	if n := tab.NumRows(); n != 2000 {
		t.Errorf("%d rows after %d inserts and deletes each, want 2000", n, churns)
	}
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestHistogramEstimates(t *testing.T) {
	vals := make([]int64, 0, 1000)
	for i := 0; i < 1000; i++ {
		vals = append(vals, int64(i%100)) // uniform over [0,100)
	}
	h := NewHistogram(vals, 10)
	// Exactly 10% of values in [0,9].
	est := h.EstimateRange(0, 9)
	if est < 80 || est > 120 {
		t.Errorf("EstimateRange(0,9) = %v, want ~100", est)
	}
	if s := h.Selectivity(0, 99); s < 0.99 {
		t.Errorf("full-range selectivity = %v, want ~1", s)
	}
	if s := h.Selectivity(200, 300); s != 0 {
		t.Errorf("out-of-range selectivity = %v, want 0", s)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram(nil, 10)
	if h.EstimateRange(0, 10) != 0 {
		t.Error("empty histogram should estimate 0")
	}
}

func TestAnalyzeComputesStats(t *testing.T) {
	c := NewMem()
	tab, _ := c.CreateTable("t", Schema{Columns: []Column{
		{Name: "a", Type: Int64},
		{Name: "s", Type: String},
	}})
	for i := 0; i < 500; i++ {
		tab.Insert(Row{int64(i % 10), "x"})
	}
	if err := tab.Analyze(8, 3); err != nil {
		t.Fatal(err)
	}
	if tab.Stats.RowCount != 500 {
		t.Errorf("RowCount = %d", tab.Stats.RowCount)
	}
	cs := tab.Stats.Cols[0]
	if cs == nil {
		t.Fatal("no stats for int column")
	}
	if cs.NDV != 10 {
		t.Errorf("NDV = %d, want 10", cs.NDV)
	}
	if len(cs.MCVs) != 3 {
		t.Errorf("MCVs = %d entries, want 3", len(cs.MCVs))
	}
	if cs.MCVs[0].Count != 50 {
		t.Errorf("top MCV count = %d, want 50", cs.MCVs[0].Count)
	}
	if _, ok := tab.Stats.Cols[1]; ok {
		t.Error("string column should not get int stats")
	}
	// Selectivity of a = 0..4 should be about half.
	sel := tab.EstimateSelectivity(0, 0, 4)
	if sel < 0.4 || sel > 0.6 {
		t.Errorf("selectivity = %v, want ~0.5", sel)
	}
}

func TestEstimateSelectivityDefaults(t *testing.T) {
	c := NewMem()
	tab, _ := c.CreateTable("t", testSchema())
	if s := tab.EstimateSelectivity(0, 0, 10); s != 1.0/3 {
		t.Errorf("no-stats selectivity = %v, want 1/3", s)
	}
}
