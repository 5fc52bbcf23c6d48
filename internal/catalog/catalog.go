// Package catalog maintains aidb's schema objects: tables (heap files over
// the storage layer), column definitions, and per-column statistics
// (equi-width histograms, distinct counts, most-common values) used by the
// traditional optimizer baselines.
package catalog

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"aidb/internal/storage"
)

// ColType enumerates supported column types.
type ColType int

// Supported column types.
const (
	Int64 ColType = iota
	Float64
	String
)

func (t ColType) String() string {
	switch t {
	case Int64:
		return "INT"
	case Float64:
		return "FLOAT"
	default:
		return "TEXT"
	}
}

// Value is a dynamically typed cell: int64, float64 or string. It is an
// alias, so the []any of literals sql.Normalize extracts is a []Value
// as it stands.
type Value = any

// Row is one tuple.
type Row []Value

// Column describes one table column.
type Column struct {
	Name string
	Type ColType
}

// Schema is an ordered column list.
type Schema struct {
	Columns []Column
}

// ColIndex returns the position of the named column, or -1.
func (s *Schema) ColIndex(name string) int {
	for i, c := range s.Columns {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Table is a named heap file with a schema and optional statistics.
type Table struct {
	Name   string
	Schema Schema

	mu     sync.RWMutex
	pool   *storage.BufferPool
	layout *pageLayout // where the schema's columns lie on a page
	pages  []storage.PageID
	// holes lists, in ascending order, the pages a row was deleted from
	// since they last turned an insert away: where Insert looks for
	// reusable space once the last page is full, so delete/insert churn
	// does not grow the table.
	holes []storage.PageID
	zones zones // one per page of pages, in its order
	// indexes are the table's secondary indexes. They change with the
	// heap, under mu: heapWriter.try enters each row it places, deleteIf
	// removes each row it deletes.
	indexes []tableIndex
	rows    int
	Stats   *TableStats
}

// Catalog is the collection of tables in one database.
type Catalog struct {
	mu      sync.RWMutex
	pool    *storage.BufferPool
	tables  map[string]*Table
	virtual map[string]*FuncTable
}

// New creates a catalog whose tables store pages in pool.
func New(pool *storage.BufferPool) *Catalog {
	return &Catalog{pool: pool, tables: make(map[string]*Table)}
}

// NewMem creates a catalog over a fresh in-memory disk and pool, sized for
// tests and examples.
func NewMem() *Catalog {
	pool, err := storage.NewBufferPool(storage.NewMemDisk(), 1024)
	if err != nil {
		// The constant capacity is valid by construction; reaching this
		// means NewBufferPool's contract changed under us — fail loudly
		// instead of returning a catalog with a nil pool.
		panic(fmt.Sprintf("catalog: NewMem pool: %v", err))
	}
	return New(pool)
}

// Pool exposes the catalog's buffer pool so callers can instrument it
// (obs) or inspect hit rates.
func (c *Catalog) Pool() *storage.BufferPool { return c.pool }

// CreateTable registers a new table.
func (c *Catalog) CreateTable(name string, schema Schema) (*Table, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.tables[name]; ok {
		return nil, fmt.Errorf("catalog: table %q already exists", name)
	}
	if len(schema.Columns) == 0 {
		return nil, errors.New("catalog: table needs at least one column")
	}
	t := &Table{Name: name, Schema: schema, pool: c.pool}
	t.layout, t.zones = newPageLayout(&t.Schema), newZones(&t.Schema)
	c.tables[name] = t
	return t, nil
}

// DropTable removes a table.
func (c *Catalog) DropTable(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.tables[name]; !ok {
		return fmt.Errorf("catalog: table %q does not exist", name)
	}
	delete(c.tables, name)
	return nil
}

// Table looks up a table by name.
func (c *Catalog) Table(name string) (*Table, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[name]
	if !ok {
		return nil, fmt.Errorf("catalog: table %q does not exist", name)
	}
	return t, nil
}

// Tables lists table names in sorted order.
func (c *Catalog) Tables() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	names := make([]string, 0, len(c.tables))
	for n := range c.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Coerce converts v to the Go type a column of type t stores (int64,
// float64 or string), converting between the two numeric types; a value
// of the right type comes back as it is. A FLOAT becomes an INT only
// when it lies in int64's range, truncated toward zero. Any other
// pairing — NULL, NaN and ±Inf included — is an error: what cannot be
// stored is rejected before a row is written.
func Coerce(v Value, t ColType) (Value, error) {
	switch t {
	case Int64:
		switch x := v.(type) {
		case int64:
			return v, nil
		case float64:
			// -2^63 and 2^63 are exact float64s; NaN fails both tests.
			if x >= -1<<63 && x < 1<<63 {
				return int64(x), nil
			}
			return nil, fmt.Errorf("catalog: FLOAT %v is out of INT range", x)
		}
	case Float64:
		switch x := v.(type) {
		case float64:
			return v, nil
		case int64:
			return float64(x), nil
		}
	case String:
		if _, ok := v.(string); ok {
			return v, nil
		}
	}
	return nil, fmt.Errorf("catalog: cannot store %T as %v", v, t)
}

// checkRow checks that row fits the schema, and an empty page.
func (t *Table) checkRow(row Row) error {
	if len(row) != len(t.Schema.Columns) {
		return fmt.Errorf("catalog: row has %d values, schema has %d columns", len(row), len(t.Schema.Columns))
	}
	for i, col := range t.Schema.Columns {
		var ok bool
		switch col.Type {
		case Int64:
			_, ok = row[i].(int64)
		case Float64:
			_, ok = row[i].(float64)
		case String:
			_, ok = row[i].(string)
		}
		if !ok {
			return fmt.Errorf("catalog: column %q expects %v, got %T", col.Name, col.Type, row[i])
		}
	}
	if l := t.layout; l.areasEnd(1)+l.rowText(row) > storage.PageSize {
		return fmt.Errorf("catalog: row of %d bytes exceeds page capacity", l.slot+l.rowText(row))
	}
	return nil
}

// Insert stores a row and returns its record id: InsertRows of one row.
func (t *Table) Insert(row Row) (storage.RecordID, error) {
	var rid storage.RecordID
	err := t.InsertRows([]Row{row}, func(_ int, r storage.RecordID) { rid = r })
	return rid, err
}

// InsertRows stores rows in order and hands each row's index and record
// id to each as it is written. A row goes where inserting the rows one
// at a time would put it: in the last page while that has room, else in
// space a deleted row left behind (reusing that row's record id), else
// in a new page; each of the table's indexes takes its entry for the row
// as it lands. The table is locked once, and the page being filled
// stays pinned from row to row. Rows are checked before any is written,
// so a row that does not fit the schema or a page writes nothing; an
// error part way (I/O, or a corrupt page) leaves the rows before it
// stored. each, when not nil, runs under the table's write lock; it must
// not use the table.
func (t *Table) InsertRows(rows []Row, each func(i int, rid storage.RecordID)) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, row := range rows {
		if err := t.checkRow(row); err != nil {
			return err
		}
	}
	w := heapWriter{t: t}
	if len(rows) > 1 {
		w.last.ix, w.hole.ix = newDictIndex(), newDictIndex()
		defer w.last.ix.free()
		defer w.hole.ix.free()
	}
	for i, row := range rows {
		rid, err := w.put(row)
		if err != nil {
			w.release(&w.last)
			w.release(&w.hole)
			return err
		}
		if each != nil {
			each(i, rid)
		}
	}
	return errors.Join(w.release(&w.last), w.release(&w.hole))
}

// heapWriter writes rows for InsertRows, keeping pinned between
// rows the last page and the hole (a page a row was deleted from) it
// is filling. Its owner holds the table's write lock.
type heapWriter struct {
	t          *Table
	last, hole pinned
}

// pinned is a page a heapWriter holds pinned; dirty once written. at is
// the page's index in the table's page list, where its zone is. ix,
// when set, indexes the page's dictionary: a writer of more than one row
// keeps one per page, where looking a string up entry by entry would
// cost each row the page's distinct strings.
type pinned struct {
	p     *storage.Page
	dirty bool
	at    int
	ix    *dictIndex
}

// put writes row where Insert's order puts it and returns its record id.
func (w *heapWriter) put(row Row) (storage.RecordID, error) {
	t := w.t
	if n := len(t.pages); n > 0 {
		if rid, err := w.try(&w.last, t.pages[n-1], row); !errors.Is(err, errPageFull) {
			return rid, err
		}
	}
	for len(t.holes) > 0 {
		rid, err := w.try(&w.hole, t.holes[0], row)
		if !errors.Is(err, errPageFull) {
			return rid, err
		}
		t.holes = t.holes[1:] // nothing here fits; a later delete may change that
	}
	if err := w.release(&w.last); err != nil {
		return storage.RecordID{}, err
	}
	p, err := t.pool.NewPage()
	if err != nil {
		return storage.RecordID{}, err
	}
	t.pages = append(t.pages, p.ID)
	t.zones.add()
	w.last.p, w.last.dirty, w.last.at = p, true, len(t.pages)-1
	return w.try(&w.last, p.ID, row)
}

// try inserts row into page id, pinned in s (which first lets go of the
// page it held, if another).
func (w *heapWriter) try(s *pinned, id storage.PageID, row Row) (storage.RecordID, error) {
	if s.p == nil || s.p.ID != id {
		if err := w.release(s); err != nil {
			return storage.RecordID{}, err
		}
		p, err := w.t.pool.Fetch(id)
		if err != nil {
			return storage.RecordID{}, err
		}
		s.p = p
		s.at, _ = w.t.pos(id)
	}
	slot, err := w.t.layout.insert(s.p.Data[:], id, row, s.ix)
	if err != nil {
		return storage.RecordID{}, err
	}
	s.dirty = true
	w.t.rows++
	w.t.zones.widen(s.at, row)
	rid := storage.RecordID{Page: id, Slot: slot}
	for _, x := range w.t.indexes {
		x.tree.Put(row[x.col].(int64), packRID(rid))
	}
	return rid, nil
}

// release unpins the page s holds, if any.
func (w *heapWriter) release(s *pinned) error {
	if s.p == nil {
		return nil
	}
	err := w.t.pool.Unpin(s.p.ID, s.dirty)
	s.p, s.dirty = nil, false
	return err
}

// Get fetches the row at rid.
func (t *Table) Get(rid storage.RecordID) (Row, error) {
	vs, cols := t.vectors()
	n, err := t.DecodeRecords([]storage.RecordID{rid}, cols, nil)
	return t.only(vs, n, err)
}

// rowAt reads the row at rid from its page's bytes b; the caller holds
// the table's lock.
func (t *Table) rowAt(b []byte, rid storage.RecordID) (Row, error) {
	vs, cols := t.vectors()
	var slots []int32
	n, err := t.decodeRecords(b, []storage.RecordID{rid}, cols, nil, &slots)
	return t.only(vs, n, err)
}

// only boxes the one row a decode of n rows read into vs.
func (t *Table) only(vs []Vector, n int, err error) (Row, error) {
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, storage.ErrRecordDeleted
	}
	return t.row(vs, 0), nil
}

// Delete tombstones the row at rid.
func (t *Table) Delete(rid storage.RecordID) error { return t.deleteIf(rid, nil) }

// DeleteIf tombstones the row at rid provided it still is want, the row
// a statement read there, cell for cell (floats by bits), and removes
// its index entries. Record ids are
// reused, so between reading a row and deleting it another statement
// may have deleted it and a third row taken its place; then, as when
// the slot is simply empty, the error is storage.ErrRecordDeleted and
// nothing is touched.
func (t *Table) DeleteIf(rid storage.RecordID, want Row) error {
	if err := t.checkRow(want); err != nil {
		return err
	}
	return t.deleteIf(rid, want)
}

func (t *Table) deleteIf(rid storage.RecordID, want Row) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	p, err := t.pool.Fetch(rid.Page)
	if err != nil {
		return err
	}
	h, derr := t.layout.open(p.Data[:], rid.Page)
	if derr == nil && want == nil && len(t.indexes) > 0 {
		// Delete has no row in hand: read the one there for its entries.
		want, derr = t.rowAt(p.Data[:], rid)
	}
	if derr == nil {
		derr = h.remove(rid.Page, rid.Slot, want)
	}
	if uerr := t.pool.Unpin(rid.Page, derr == nil); uerr != nil {
		return uerr
	}
	if derr == nil {
		t.rows--
		if i, ok := t.pos(rid.Page); ok {
			t.zones.drop(i)
		}
		if i, found := slices.BinarySearch(t.holes, rid.Page); !found {
			t.holes = slices.Insert(t.holes, i, rid.Page)
		}
		for _, x := range t.indexes {
			x.tree.Delete(want[x.col].(int64), packRID(rid))
		}
	}
	return derr
}

// NumRows reports the live row count.
func (t *Table) NumRows() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.rows
}

// PageIDs returns a point-in-time copy of the table's page list in heap
// order. It is the partitioning handle for morsel-driven scans: split
// the list with storage.PartitionPages and hand each range to ScanPages
// on its own worker.
func (t *Table) PageIDs() []storage.PageID {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return append([]storage.PageID(nil), t.pages...)
}

// ScanPages streams the live rows of just the given pages to fn in page
// order; returning false stops the scan. Each page is decoded under the
// table's read lock and its rows handed to fn after it is released, so
// fn may write to the table. It is safe to call concurrently over any
// page ranges.
func (t *Table) ScanPages(pages []storage.PageID, fn func(rid storage.RecordID, row Row) bool) error {
	vs, cols := t.vectors()
	var rids []storage.RecordID
	for p := range pages {
		for i := range vs {
			vs[i].Reset()
		}
		rids = rids[:0]
		if _, _, err := t.DecodePages(pages[p:p+1], cols, &rids, 1); err != nil {
			return err
		}
		for i, rid := range rids {
			if !fn(rid, t.row(vs, i)) {
				return nil
			}
		}
	}
	return nil
}

// vectors returns one vector per column, to decode every column into.
func (t *Table) vectors() ([]Vector, []*Vector) {
	vs := make([]Vector, len(t.Schema.Columns))
	cols := make([]*Vector, len(vs))
	for i := range vs {
		cols[i] = &vs[i]
	}
	return vs, cols
}

// row boxes decoded row i.
func (t *Table) row(vs []Vector, i int) Row {
	row := make(Row, len(vs))
	for j, c := range t.Schema.Columns {
		switch c.Type {
		case Int64:
			row[j] = vs[j].I[i]
		case Float64:
			row[j] = vs[j].F[i]
		default:
			row[j] = vs[j].S[i]
		}
	}
	return row
}
