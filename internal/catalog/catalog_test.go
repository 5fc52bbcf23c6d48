package catalog

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"aidb/internal/storage"
)

// allRows reads every live row of tab through ScanPages.
func allRows(tab *Table) ([]Row, error) {
	var rows []Row
	err := tab.ScanPages(tab.PageIDs(), func(_ storage.RecordID, r Row) bool {
		rows = append(rows, r)
		return true
	})
	return rows, err
}

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

// TestInsertRowsAllOrNothing: a batch with one row the schema or a page
// cannot hold writes none of its rows.
func TestInsertRowsAllOrNothing(t *testing.T) {
	tab, _ := NewMem().CreateTable("t", testSchema())
	for _, bad := range []Row{{int64(2), "x", "y"}, {int64(2), 1.0}, {int64(2), 1.0, strings.Repeat("x", storage.PageSize)}} {
		called := 0
		err := tab.InsertRows([]Row{{int64(1), 1.0, "a"}, bad, {int64(3), 3.0, "c"}}, func(int, storage.RecordID) { called++ })
		if err == nil || called != 0 || tab.NumRows() != 0 || len(tab.PageIDs()) != 0 {
			t.Errorf("batch with %v: err %v, %d rows reported, %d stored on %d pages", bad, err, called, tab.NumRows(), len(tab.PageIDs()))
		}
	}
}

// placeOneAtATime is the reference InsertRows is held to: one row
// stored on its own, its page fetched and unpinned around the page's
// insert — the last page while it has room, else the first hole with
// room (holes without any dropped), else a new page.
func placeOneAtATime(t *Table, row Row) (storage.RecordID, error) {
	if err := t.checkRow(row); err != nil {
		return storage.RecordID{}, err
	}
	try := func(id storage.PageID) (storage.RecordID, error) {
		p, err := t.pool.Fetch(id)
		if err != nil {
			return storage.RecordID{}, err
		}
		slot, ierr := t.layout.insert(p.Data[:], id, row, nil)
		if err := t.pool.Unpin(id, ierr == nil); err != nil {
			return storage.RecordID{}, err
		}
		if ierr != nil {
			return storage.RecordID{}, ierr
		}
		t.rows++
		i, _ := t.pos(id)
		t.zones.widen(i, row)
		return storage.RecordID{Page: id, Slot: slot}, nil
	}
	if n := len(t.pages); n > 0 {
		if rid, err := try(t.pages[n-1]); !errors.Is(err, errPageFull) {
			return rid, err
		}
	}
	for len(t.holes) > 0 {
		if rid, err := try(t.holes[0]); !errors.Is(err, errPageFull) {
			return rid, err
		}
		t.holes = t.holes[1:]
	}
	p, err := t.pool.NewPage()
	if err != nil {
		return storage.RecordID{}, err
	}
	t.pages = append(t.pages, p.ID)
	t.zones.add()
	if err := t.pool.Unpin(p.ID, true); err != nil {
		return storage.RecordID{}, err
	}
	return try(p.ID)
}

// TestInsertRowsPlacesLikeOneAtATime: batches of rows of many sizes,
// with deletes between them that leave holes on every page, land where
// storing their rows one at a time would put them, and the pages end up
// byte for byte alike: with one TEXT column of strings of one byte
// repeated, and with two TEXT columns sharing values — empty strings and
// strings that are prefixes of others among them — so rows reuse entries
// their own other column or earlier rows added.
func TestInsertRowsPlacesLikeOneAtATime(t *testing.T) {
	twoText := Schema{Columns: []Column{
		{Name: "id", Type: Int64}, {Name: "a", Type: String}, {Name: "b", Type: String},
	}}
	words := []string{"", "a", "ab", "abc", "abcd", "b", "ba", "bab", "x"}
	for _, c := range []struct {
		name   string
		schema Schema
		row    func(r *rand.Rand, round, i int) Row
	}{
		{"one-text", testSchema(), func(r *rand.Rand, round, i int) Row {
			return Row{int64(i), float64(round), strings.Repeat("n", r.Intn(90))}
		}},
		{"two-text", twoText, func(r *rand.Rand, round, i int) Row {
			word := func() string {
				if r.Intn(4) == 0 { // a string of its own, a prefix of a word or not
					return words[r.Intn(len(words))] + fmt.Sprint(r.Intn(1000))
				}
				return words[r.Intn(len(words))]
			}
			a := word()
			b := a
			if r.Intn(2) == 0 {
				b = word()
			}
			return Row{int64(i), a, b}
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			bulk, _ := NewMem().CreateTable("t", c.schema)
			single, _ := NewMem().CreateTable("t", c.schema)
			r := rand.New(rand.NewSource(26))
			reused := 0
			for round := 0; round < 12; round++ {
				rows := make([]Row, 1+r.Intn(300))
				for i := range rows {
					rows[i] = c.row(r, round, i)
				}
				var got, want []storage.RecordID
				if err := bulk.InsertRows(rows, func(i int, rid storage.RecordID) {
					if i != len(got) {
						t.Fatalf("row %d reported as row %d", len(got), i)
					}
					got = append(got, rid)
				}); err != nil {
					t.Fatal(err)
				}
				for _, row := range rows {
					rid, err := placeOneAtATime(single, row)
					if err != nil {
						t.Fatal(err)
					}
					want = append(want, rid)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("round %d: InsertRows placed rows at %v, one at a time at %v", round, got, want)
				}
				for _, rid := range got {
					if rid.Page != bulk.pages[len(bulk.pages)-1] {
						reused++
					}
				}
				var live []storage.RecordID
				if _, _, err := bulk.DecodePages(bulk.PageIDs(), make([]*Vector, 3), &live, math.MaxInt); err != nil {
					t.Fatal(err)
				}
				for _, rid := range live {
					if r.Intn(3) == 0 {
						if err := bulk.Delete(rid); err != nil {
							t.Fatal(err)
						}
						if err := single.Delete(rid); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			if !slices.Equal(bulk.pages, single.pages) || !slices.Equal(bulk.holes, single.holes) || bulk.rows != single.rows {
				t.Fatalf("pages %v holes %v rows %d, one at a time: pages %v holes %v rows %d", bulk.pages, bulk.holes, bulk.rows, single.pages, single.holes, single.rows)
			}
			if !slices.Equal(bulk.zones.w, single.zones.w) {
				t.Fatalf("zones %v, one at a time %v", bulk.zones.w, single.zones.w)
			}
			for _, id := range bulk.pages {
				a, err := bulk.pool.Fetch(id)
				if err != nil {
					t.Fatal(err)
				}
				b, err := single.pool.Fetch(id)
				if err != nil {
					t.Fatal(err)
				}
				if a.Data != b.Data {
					t.Errorf("page %d differs", id)
				}
				bulk.pool.Unpin(id, false)
				single.pool.Unpin(id, false)
			}
			if reused < 100 {
				t.Errorf("weak coverage: %d rows landed before the last page", reused)
			}
			rows, err := allRows(bulk)
			if err != nil || len(rows) != bulk.rows {
				t.Fatalf("%d rows read back of %d: %v", len(rows), bulk.rows, err)
			}
		})
	}
}

// TestCoerceIntRange: a FLOAT is stored in an INT column only when it
// lies in [-2^63, 2^63), truncated toward zero; NaN and ±Inf never are.
func TestCoerceIntRange(t *testing.T) {
	for f, want := range map[float64]int64{-1 << 63: math.MinInt64, -2.9: -2, 2.9: 2, 1<<63 - 1024: 1<<63 - 1024} {
		if v, err := Coerce(f, Int64); err != nil || v != want {
			t.Errorf("Coerce(%v) = %v, %v; want %d", f, v, err, want)
		}
	}
	for _, f := range []float64{1 << 63, math.Nextafter(-1<<63, math.Inf(-1)), 1e300, math.Inf(1), math.Inf(-1), math.NaN()} {
		if v, err := Coerce(f, Int64); err == nil {
			t.Errorf("Coerce(%v) = %v, want an error", f, v)
		}
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
	err := tab.ScanPages(tab.PageIDs(), func(_ storage.RecordID, r Row) bool {
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
	tab.ScanPages(tab.PageIDs(), func(_ storage.RecordID, r Row) bool {
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
	rows, _ := allRows(tab)
	if len(rows) != 1 || rows[0][0].(int64) != 2 {
		t.Errorf("rows = %v", rows)
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
	tab.ScanPages(tab.PageIDs(), func(_ storage.RecordID, r Row) bool {
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

// TestChurnDoesNotGrow: updating every row of a table over and over,
// its TEXT column alternately long and short, must keep the table
// within twice the pages a fresh load of the long rows takes. An update
// deletes a row and inserts its new version, so a page must take a long
// row into the bytes short dead rows left, once it has lost enough. With
// one string per round, a page's dictionary holds it once; with a string
// of its own per row and round, every update leaves a dead entry behind,
// which only laying the page out again reclaims.
func TestChurnDoesNotGrow(t *testing.T) {
	schema := Schema{Columns: []Column{{Name: "id", Type: Int64}, {Name: "s", Type: String}}}
	for _, distinct := range []bool{false, true} {
		t.Run(map[bool]string{false: "one-string", true: "distinct-strings"}[distinct], func(t *testing.T) {
			// text is row id's string in round: 100 bytes when long, else 10.
			text := func(round int, id int64, long bool) string {
				s := strings.Repeat("s", 10)
				if long {
					s = strings.Repeat("l", 100)
				}
				if distinct {
					tag := fmt.Sprintf("%d.%d.", round, id)
					s = tag + s[len(tag):]
				}
				return s
			}
			load := func(long bool) *Table {
				tab, _ := NewMem().CreateTable("t", schema)
				for i := int64(0); i < 1000; i++ {
					if _, err := tab.Insert(Row{i, text(-1, i, long)}); err != nil {
						t.Fatal(err)
					}
				}
				return tab
			}
			fresh := len(load(true).PageIDs())
			tab := load(false)
			const rounds = 40
			for round := 0; round < rounds; round++ {
				type change struct {
					rid storage.RecordID
					old Row
				}
				var changes []change
				if err := tab.ScanPages(tab.PageIDs(), func(rid storage.RecordID, r Row) bool {
					changes = append(changes, change{rid, r})
					return true
				}); err != nil {
					t.Fatal(err)
				}
				for _, c := range changes {
					if err := tab.DeleteIf(c.rid, c.old); err != nil {
						t.Fatal(err)
					}
					id := c.old[0].(int64)
					if _, err := tab.Insert(Row{id, text(round, id, round%2 == 0)}); err != nil {
						t.Fatal(err)
					}
				}
				if got := len(tab.PageIDs()); got > 2*fresh {
					t.Fatalf("round %d: %d pages, a fresh load of the long rows takes %d", round, got, fresh)
				}
			}
			rows, err := allRows(tab)
			if err != nil || len(rows) != 1000 || tab.NumRows() != 1000 {
				t.Fatalf("%d rows read (%v), NumRows %d, want 1000", len(rows), err, tab.NumRows())
			}
			seen := map[int64]bool{}
			for _, r := range rows {
				id := r[0].(int64)
				if r[1] != text(rounds-1, id, false) || seen[id] {
					t.Fatalf("row %v after the last round", r)
				}
				seen[id] = true
			}
		})
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

// Property: rows of every type round-trip through a page.
func TestRowRoundTripProperty(t *testing.T) {
	schema := testSchema()
	f := func(id int64, score float64, name string) bool {
		if len(name) > 1000 {
			name = name[:1000]
		}
		var b [storage.PageSize]byte
		if _, err := newPageLayout(&schema).insert(b[:], 0, Row{id, score, name}, nil); err != nil {
			return false
		}
		var v [3]Vector
		if err := decodeBytes(&schema, b[:], []*Vector{&v[0], &v[1], &v[2]}); err != nil || len(v[0].I) != 1 {
			return false
		}
		return v[0].I[0] == id && math.Float64bits(v[1].F[0]) == math.Float64bits(score) && v[2].S[0] == name
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// decodeBytes decodes page bytes b as DecodePages decodes a page.
func decodeBytes(schema *Schema, b []byte, cols []*Vector) error {
	d := &pageDecoder{t: &Table{Schema: *schema, layout: newPageLayout(schema)}, ids: []storage.PageID{0}, cols: cols, limit: math.MaxInt}
	return d.page(b)
}

// TestDecodeTruncated: a page whose column areas or dictionary entries
// run past its end — too great a capacity or entry count — or whose slot
// count passes its capacity fails to decode whichever columns are read.
// One with a code past the dictionary, an entry out of order, past the
// page or below the dictionary's end, or an entry count that runs the
// entries into the strings, fails when the TEXT column is read, by page
// or slot by slot, and decodes when it is not; with the TEXT column
// first, in the middle or last.
func TestDecodeTruncated(t *testing.T) {
	for _, types := range [][]ColType{{Int64, Float64, String}, {String, Int64, Float64}, {Int64, String, Float64}} {
		schema := Schema{Columns: make([]Column, len(types))}
		textCol := 0
		for i, typ := range types {
			schema.Columns[i] = Column{Name: fmt.Sprint("c", i), Type: typ}
			if typ == String {
				textCol = i
			}
		}
		l := newPageLayout(&schema)
		var good [storage.PageSize]byte
		for _, s := range []string{"hello", "hi", "hey"} {
			row := make(Row, len(types))
			for i, typ := range types {
				row[i] = map[ColType]Value{Int64: int64(1), Float64: 2.0, String: s}[typ]
			}
			if _, err := l.insert(good[:], 0, row, nil); err != nil {
				t.Fatal(err)
			}
		}
		p, err := l.open(good[:], 0)
		if err != nil {
			t.Fatal(err)
		}
		if p.k != 3 {
			t.Fatalf("%v: %d dictionary entries, want 3", types, p.k)
		}
		put := func(b []byte, at, v int) { binary.LittleEndian.PutUint16(b[at:], uint16(v)) }
		entry := func(i int) int { return p.dict + 2*i }
		var cuts []func(b []byte)
		for c := p.cap + 1; c < p.cap+40; c++ {
			if l.areasEnd(c)+2*p.k > storage.PageSize {
				cuts = append(cuts, func(b []byte) { put(b, 2, c) })
			}
		}
		for k := (storage.PageSize-p.dict)/2 + 1; k < 1<<16; k += 997 {
			cuts = append(cuts, func(b []byte) { put(b, 4, k) })
		}
		cuts = append(cuts,
			func(b []byte) { put(b, 0, p.cap+1) },
			func(b []byte) { put(b, 2, 1<<16-1) })
		// The header cuts fail whatever is read; the dictionary cuts only
		// a read of the TEXT column.
		headerCuts := len(cuts)
		cuts = append(cuts,
			func(b []byte) { put(b, p.area(textCol)+2, p.k) },       // slot 1's code
			func(b []byte) { put(b, p.area(textCol)+2, 1<<16-1) },   // slot 1's code
			func(b []byte) { put(b, entry(1), p.at(0)+1) },          // above the entry before it
			func(b []byte) { put(b, entry(1), p.at(2)-1) },          // below the entry after it
			func(b []byte) { put(b, entry(0), storage.PageSize+1) }, // past the page
			func(b []byte) { put(b, entry(2), p.dict+2*p.k-1) },     // below the dictionary's end
			func(b []byte) { put(b, 4, (p.at(2)-p.dict)/2+1) })      // entries into the strings
		for i, cut := range cuts {
			b := good
			cut(b[:])
			for mask := 0; mask < 8; mask++ {
				cols := make([]*Vector, 3)
				for i := range cols {
					if mask&(1<<i) != 0 {
						cols[i] = &Vector{}
					}
				}
				fail := i < headerCuts || mask&(1<<textCol) != 0
				err := decodeBytes(&schema, b[:], cols)
				if fail && err == nil {
					t.Fatalf("%v: decode of cut %d reading columns %03b should fail", types, i, mask)
				} else if !fail && err != nil {
					t.Fatalf("%v: decode of cut %d reading columns %03b, which steps over the cut: %v", types, i, mask, err)
				}
				if i < headerCuts {
					continue
				}
				// Slot by slot, as DecodeRecords reads: each cut damages
				// what one of the slots reads.
				q, err := l.open(b[:], 0)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := q.decode(cols, []int32{0, 1, 2}, 0, nil, false); fail && err == nil {
					t.Fatalf("%v: slot decode of cut %d reading columns %03b should fail", types, i, mask)
				} else if !fail && err != nil {
					t.Fatalf("%v: slot decode of cut %d reading columns %03b: %v", types, i, mask, err)
				}
			}
		}
		// Entries 0 and 1 past the page, in order: slot 2's string, whose
		// entry is intact, would end past the page. Slot 2 is read alone,
		// by decode and by holds, as DecodeRecords and DeleteIf read it.
		b := good
		put(b[:], entry(0), 1<<16-1)
		put(b[:], entry(1), 1<<16-1)
		q, err := l.open(b[:], 0)
		if err != nil {
			t.Fatal(err)
		}
		cols := make([]*Vector, 3)
		cols[textCol] = &Vector{}
		if _, err := q.decode(cols, []int32{2}, 0, nil, false); err == nil {
			t.Fatalf("%v: slot 2's decode past the page should fail", types)
		}
		row := make(Row, len(types))
		for i, typ := range types {
			row[i] = map[ColType]Value{Int64: int64(1), Float64: 2.0, String: "hey"}[typ]
		}
		if _, err := q.holds(0, 2, row); err == nil {
			t.Fatalf("%v: holds of slot 2 past the page should fail", types)
		}
		var v [3]Vector
		if err := decodeBytes(&schema, good[:], []*Vector{&v[0], &v[1], &v[2]}); err != nil || len(v[textCol].S) != 3 {
			t.Fatalf("%v: whole page: %v", types, err)
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
			if err := tab.ScanPages(tab.PageIDs(), func(rid storage.RecordID, _ Row) bool { rids = append(rids, rid); return true }); err != nil {
				t.Fatal(err)
			}
			if n, err := tab.DecodeRecords(rids, cols, nil); err != nil || n != 300 {
				t.Fatalf("DecodeRecords: %d rows, %v", n, err)
			}
			return vs, rids
		}
		if _, _, err := tab.DecodePages(tab.PageIDs(), cols, &rids, math.MaxInt); err != nil {
			t.Fatal(err)
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
		if _, _, err := tab.DecodePages(pages, cols, nil, math.MaxInt); err != nil {
			t.Fatal(err)
		}
	}
	perScan := func(cols []*Vector) float64 { return testing.AllocsPerRun(5, func() { scan(cols) }) }
	if none, all := perScan(make([]*Vector, 3)), perScan(cols); !raceEnabled && (all > 5 || none != 0) {
		t.Errorf("allocations per 300-row scan: %v decoding every column, %v decoding none; want a few and 0", all, none)
	}
	// Strings outlive the vector they were decoded into.
	kept := v[2].S[7]
	scan(cols)
	if kept != "name-7" {
		t.Errorf("a string kept from a reset vector reads %q", kept)
	}
	if _, _, err := tab.DecodePages(tab.PageIDs(), cols[:1], nil, math.MaxInt); err == nil {
		t.Error("a column set of the wrong width must be rejected")
	}
}

// TestDecodeAllocatesNothing: once warm, decoding allocates nothing — a
// page resident or lent by the disk, a list of both, by page or by
// record id — because the live-slot list goes into pooled scratch,
// View's callback is bound once per pooled decoder, and the vectors have
// room. TEXT is stepped over here: a decoded string costs a share of a
// text buffer, allocated whole.
func TestDecodeAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool entries on purpose")
	}
	pool, err := storage.NewBufferPool(storage.NewMemDisk(), 2)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := New(pool).CreateTable("t", Schema{Columns: []Column{
		{Name: "id", Type: Int64}, {Name: "city", Type: String}, {Name: "score", Type: Float64}, {Name: "n", Type: Int64},
	}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if _, err := tab.Insert(Row{int64(i), fmt.Sprint("city-", i%7), float64(i) / 3, int64(i % 5)}); err != nil {
			t.Fatal(err)
		}
	}
	pages := tab.PageIDs()
	if len(pages) < 4 {
		t.Fatalf("%d pages, want at least 4", len(pages))
	}
	var v [4]Vector
	cols := []*Vector{&v[0], nil, &v[2], &v[3]}
	var rids []storage.RecordID
	reset := func() {
		for i := range v {
			v[i].Reset()
		}
		rids = rids[:0]
	}
	ids := map[storage.PageID][]storage.RecordID{}
	// The last page is the one inserts were writing; the first was evicted
	// long ago. Both are read by page before either is fetched by record.
	for _, i := range []int{len(pages) - 1, 0} {
		page, resident := pages[i], i == len(pages)-1
		decode := func() {
			reset()
			if _, _, err := tab.DecodePages(pages[i:i+1], cols, &rids, 1); err != nil {
				t.Fatal(err)
			}
		}
		decode()
		ids[page] = slices.Clone(rids)
		before := pool.Stats.Snapshot()
		allocs := testing.AllocsPerRun(50, decode)
		after := pool.Stats.Snapshot()
		if hit := after.Hits > before.Hits; hit != resident || len(rids) == 0 {
			t.Fatalf("page %d: DecodePages hit the pool %v, want %v; %d rows", page, hit, resident, len(rids))
		}
		if allocs != 0 {
			t.Errorf("DecodePages of a page resident %v: %v allocations per call, want 0", resident, allocs)
		}
	}
	// The whole table in one call: one lock and one View over resident
	// and lent pages alike.
	whole := func() {
		reset()
		if _, n, err := tab.DecodePages(pages, cols, &rids, math.MaxInt); err != nil || n != 1000 {
			t.Fatalf("DecodePages of the table: %d rows, %v", n, err)
		}
	}
	if allocs := testing.AllocsPerRun(50, whole); allocs != 0 {
		t.Errorf("DecodePages of %d pages: %v allocations per call, want 0", len(pages), allocs)
	}
	for page, want := range ids {
		byRecord := func() {
			reset()
			if _, err := tab.DecodeRecords(want, cols, &rids); err != nil {
				t.Fatal(err)
			}
		}
		byRecord()
		if !slices.Equal(rids, want) {
			t.Fatalf("page %d: DecodeRecords read %v, want %v", page, rids, want)
		}
		if allocs := testing.AllocsPerRun(50, byRecord); allocs != 0 {
			t.Errorf("DecodeRecords of page %d: %v allocations per call, want 0", page, allocs)
		}
	}
}

// TestDecodePageMatchesFetch: DecodePages pins a resident page and reads
// any other past the pool; either way it must see what Get sees through
// Fetch, and what was written: with the page dirty and resident, written
// back and evicted, dirtied again after being fetched back, and evicted
// once more.
func TestDecodePageMatchesFetch(t *testing.T) {
	pool, err := storage.NewBufferPool(storage.NewMemDisk(), 2)
	if err != nil {
		t.Fatal(err)
	}
	c := New(pool)
	tab, err := c.CreateTable("t", testSchema())
	if err != nil {
		t.Fatal(err)
	}
	other, err := c.CreateTable("u", testSchema())
	if err != nil {
		t.Fatal(err)
	}
	want := map[storage.RecordID]Row{}
	insert := func(i int) {
		row := Row{int64(i), float64(i) / 4, fmt.Sprintf("name-%d", i)}
		rid, err := tab.Insert(row)
		if err != nil {
			t.Fatal(err)
		}
		want[rid] = row
	}
	// evict fills the two frames with pages of another table.
	evict := func() {
		before := pool.Stats.Evictions.Load()
		for pool.Stats.Evictions.Load() < before+2 {
			if _, err := other.Insert(Row{int64(0), 0.0, strings.Repeat("x", 1500)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 10; i++ {
		insert(i)
	}
	page := tab.PageIDs()[0]
	check := func(state string, resident bool) {
		t.Helper()
		before := pool.Stats.Snapshot()
		var v [3]Vector
		var rids []storage.RecordID
		_, n, err := tab.DecodePages([]storage.PageID{page}, []*Vector{&v[0], &v[1], &v[2]}, &rids, 1)
		if err != nil {
			t.Fatal(err)
		}
		after := pool.Stats.Snapshot()
		if hit := after.Hits > before.Hits; hit != resident || after.Evictions != before.Evictions {
			t.Fatalf("%s: DecodePages hit %v, evicted %d; want hit %v, evicted 0", state, hit, after.Evictions-before.Evictions, resident)
		}
		if n != len(want) || len(rids) != n {
			t.Fatalf("%s: DecodePages read %d rows (%d ids), want %d", state, n, len(rids), len(want))
		}
		for i, rid := range rids {
			decoded := Row{v[0].I[i], v[1].F[i], v[2].S[i]}
			fetched, err := tab.Get(rid)
			if err != nil {
				t.Fatalf("%s: Get(%v): %v", state, rid, err)
			}
			if fmt.Sprint(decoded) != fmt.Sprint(want[rid]) || fmt.Sprint(fetched) != fmt.Sprint(want[rid]) {
				t.Fatalf("%s: %v decoded as %v, fetched as %v, written as %v", state, rid, decoded, fetched, want[rid])
			}
		}
	}
	check("dirty and resident", true)
	flushes := pool.Stats.Flushes.Load()
	evict()
	if pool.Stats.Flushes.Load() == flushes {
		t.Fatal("the dirty page was evicted without being written back")
	}
	check("written back and evicted", false) // Get fetched it back, clean
	var first storage.RecordID
	for rid := range want {
		first = rid
		break
	}
	if err := tab.Delete(first); err != nil {
		t.Fatal(err)
	}
	delete(want, first)
	insert(10)
	check("dirtied again after the fetch", true)
	evict()
	check("dirtied again and evicted", false)
}

// TestConcurrentScansAndChurn: scans by page and by record id run
// against inserts, deletes and FlushAll on a pool far smaller than the
// table, so page scans read most pages from disk past the pool while
// churn writes pages back and index-style reads reuse evicted page
// memory; every row any scan sees must be a row some insert wrote, whole.
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
		// Four-page morsels that stop at 200 rows and go on, as a scan
		// fills its chunks.
		pages := tab.PageIDs()
		for len(pages) > 0 {
			read, _, err := tab.DecodePages(pages[:min(4, len(pages))], cols, &rids, 200)
			if err != nil {
				t.Fatal(err)
			}
			pages = pages[read:]
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

// TestHistogramFullInt64Range: a column whose values span more than
// MaxInt64 — its extremes included — is bucketed and estimated without
// overflowing: every value lands in a bucket and every estimate lies
// between 0 and the row count.
func TestHistogramFullInt64Range(t *testing.T) {
	vals := []int64{math.MinInt64, math.MaxInt64, -5e18, 5e18, 0, 1, -1, 42}
	for _, buckets := range []int{1, 2, 10, 64} {
		h := NewHistogram(vals, buckets)
		if sum := func() (n int) {
			for _, c := range h.Buckets {
				n += c
			}
			return n
		}(); h.Total != len(vals) || sum != len(vals) {
			t.Fatalf("%d buckets: Total %d, buckets hold %d, want %d", buckets, h.Total, sum, len(vals))
		}
		if est := h.EstimateRange(math.MinInt64, math.MaxInt64); math.Abs(est-float64(len(vals))) > 1e-9 {
			t.Errorf("%d buckets: whole-range estimate %v, want %d", buckets, est, len(vals))
		}
		for _, r := range [][2]int64{{0, 0}, {-1, 1}, {math.MinInt64, 0}, {0, math.MaxInt64}, {5e18, math.MaxInt64}, {3, -3}} {
			if est := h.EstimateRange(r[0], r[1]); !(est >= 0 && est <= float64(len(vals))) {
				t.Errorf("%d buckets: EstimateRange(%d, %d) = %v", buckets, r[0], r[1], est)
			}
		}
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

// TestIndexChangesWithTheHeap: a table's index has each live row once
// under its value, through CreateIndex over existing rows, InsertRows,
// DeleteIf and Delete (which reads the row's value itself); it takes
// INT columns only, one index each.
func TestIndexChangesWithTheHeap(t *testing.T) {
	tab, _ := NewMem().CreateTable("t", testSchema())
	var rids []storage.RecordID
	for i := 0; i < 600; i++ {
		rid, err := tab.Insert(Row{int64(i % 7), float64(i), "x"})
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	if err := tab.CreateIndex(0); err != nil {
		t.Fatal(err)
	}
	for col := -1; col <= 3; col++ { // none, indexed already, FLOAT, TEXT, none
		if err := tab.CreateIndex(col); err == nil {
			t.Errorf("CreateIndex(%d) succeeded", col)
		}
	}
	if !tab.Indexed(0) || tab.Indexed(1) || tab.Indexed(2) {
		t.Errorf("Indexed = %v %v %v, want true false false", tab.Indexed(0), tab.Indexed(1), tab.Indexed(2))
	}
	if _, err := tab.IndexRange(2, 0, 0, nil); err == nil {
		t.Error("IndexRange on a column without an index succeeded")
	}
	for i := 0; i < 600; i += 3 {
		var err error
		if i%2 == 0 {
			err = tab.Delete(rids[i])
		} else {
			err = tab.DeleteIf(rids[i], Row{int64(i % 7), float64(i), "x"})
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := tab.InsertRows([]Row{{int64(3), 0.0, "y"}, {int64(math.MinInt64), 0.0, "y"}, {int64(math.MaxInt64), 0.0, "y"}}, nil); err != nil {
		t.Fatal(err)
	}
	want := map[int64][]storage.RecordID{}
	err := tab.ScanPages(tab.PageIDs(), func(rid storage.RecordID, r Row) bool {
		want[r[0].(int64)] = append(want[r[0].(int64)], rid)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	all, err := tab.IndexRange(0, math.MinInt64, math.MaxInt64, nil)
	if err != nil || len(all) != tab.NumRows() {
		t.Fatalf("the index holds %d entries for %d rows (%v)", len(all), tab.NumRows(), err)
	}
	for v, rids := range want {
		slices.SortFunc(rids, func(a, b storage.RecordID) int { return cmp.Compare(packRID(a), packRID(b)) })
		if got, _ := tab.IndexRange(0, v, v, nil); !slices.Equal(got, rids) {
			t.Errorf("value %d: index %v, heap %v", v, got, rids)
		}
	}
}

// TestAnalyzeMatchesScannedRows: Analyze reads its INT columns in one
// DecodePages pass; its statistics must be the ones the table's rows, as
// ScanPages boxes them, give — row count, histograms, NDV and MCVs in
// order — on a seeded table with deletes and the inserts that refill
// their slots.
func TestAnalyzeMatchesScannedRows(t *testing.T) {
	const buckets, mcvs = 16, 5
	r := rand.New(rand.NewSource(34))
	tab, _ := NewMem().CreateTable("t", Schema{Columns: []Column{
		{Name: "a", Type: Int64}, {Name: "f", Type: Float64},
		{Name: "b", Type: Int64}, {Name: "s", Type: String},
	}})
	var rids []storage.RecordID
	for i := 0; i < 3000; i++ {
		if len(rids) > 0 && r.Intn(4) == 0 {
			k := r.Intn(len(rids))
			if err := tab.Delete(rids[k]); err != nil {
				t.Fatal(err)
			}
			rids = slices.Delete(rids, k, k+1)
			continue
		}
		rid, err := tab.Insert(Row{int64(r.Intn(40)), r.Float64(), r.Int63() - r.Int63(), fmt.Sprint("s", r.Intn(9))})
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	if err := tab.Analyze(buckets, mcvs); err != nil {
		t.Fatal(err)
	}
	rows, err := allRows(tab)
	if err != nil {
		t.Fatal(err)
	}
	want := &TableStats{RowCount: len(rows), Cols: map[int]*ColumnStats{}}
	for _, col := range []int{0, 2} {
		vals := make([]int64, len(rows))
		counts := map[int64]int{}
		for i, row := range rows {
			vals[i] = row[col].(int64)
			counts[vals[i]]++
		}
		var top []MCV
		for v, n := range counts {
			top = append(top, MCV{Value: v, Count: n})
		}
		slices.SortFunc(top, func(x, y MCV) int {
			if x.Count != y.Count {
				return y.Count - x.Count
			}
			return cmp.Compare(x.Value, y.Value)
		})
		want.Cols[col] = &ColumnStats{Hist: NewHistogram(vals, buckets), NDV: len(counts), MCVs: top[:min(mcvs, len(top))]}
	}
	if !reflect.DeepEqual(tab.Stats, want) {
		t.Errorf("Analyze gives %+v\nthe scanned rows give %+v", tab.Stats, want)
	}
	if want.RowCount != len(rids) || want.Cols[0].NDV != 40 {
		t.Errorf("weak coverage: %d rows of %d live, NDV %d", want.RowCount, len(rids), want.Cols[0].NDV)
	}
}

func TestEstimateSelectivityDefaults(t *testing.T) {
	c := NewMem()
	tab, _ := c.CreateTable("t", testSchema())
	if s := tab.EstimateSelectivity(0, 0, 10); s != 1.0/3 {
		t.Errorf("no-stats selectivity = %v, want 1/3", s)
	}
}
