// Package catalog maintains aidb's schema objects: tables (heap files over
// the storage layer), column definitions, and per-column statistics
// (equi-width histograms, distinct counts, most-common values) used by the
// traditional optimizer baselines.
package catalog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
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

	mu    sync.RWMutex
	pool  *storage.BufferPool
	pages []storage.PageID
	// holes lists, in ascending order, the pages a row was deleted from
	// since they last turned an insert away: where Insert looks for
	// reusable space once the last page is full, so delete/insert churn
	// does not grow the table.
	holes []storage.PageID
	rows  int
	Stats *TableStats
}

// Catalog is the collection of tables in one database.
type Catalog struct {
	mu      sync.RWMutex
	pool    *storage.BufferPool
	tables  map[string]*Table
	virtual map[string]VirtualTable
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
// float64 or string), converting between the two numeric types. Any
// other pairing — NULL included — is an error: what cannot be stored
// is rejected before a row is written.
func Coerce(v Value, t ColType) (Value, error) {
	switch t {
	case Int64:
		switch x := v.(type) {
		case int64:
			return x, nil
		case float64:
			return int64(x), nil
		}
	case Float64:
		switch x := v.(type) {
		case float64:
			return x, nil
		case int64:
			return float64(x), nil
		}
	case String:
		if x, ok := v.(string); ok {
			return x, nil
		}
	}
	return nil, fmt.Errorf("catalog: cannot store %T as %v", v, t)
}

// encodeRow serializes a row against a schema.
func encodeRow(schema *Schema, row Row) ([]byte, error) {
	if len(row) != len(schema.Columns) {
		return nil, fmt.Errorf("catalog: row has %d values, schema has %d columns", len(row), len(schema.Columns))
	}
	var buf []byte
	var scratch [8]byte
	for i, col := range schema.Columns {
		switch col.Type {
		case Int64:
			v, ok := row[i].(int64)
			if !ok {
				return nil, fmt.Errorf("catalog: column %q expects int64, got %T", col.Name, row[i])
			}
			binary.LittleEndian.PutUint64(scratch[:], uint64(v))
			buf = append(buf, scratch[:]...)
		case Float64:
			v, ok := row[i].(float64)
			if !ok {
				return nil, fmt.Errorf("catalog: column %q expects float64, got %T", col.Name, row[i])
			}
			binary.LittleEndian.PutUint64(scratch[:], math.Float64bits(v))
			buf = append(buf, scratch[:]...)
		case String:
			v, ok := row[i].(string)
			if !ok {
				return nil, fmt.Errorf("catalog: column %q expects string, got %T", col.Name, row[i])
			}
			binary.LittleEndian.PutUint32(scratch[:4], uint32(len(v)))
			buf = append(buf, scratch[:4]...)
			buf = append(buf, v...)
		}
	}
	return buf, nil
}

// stringLen reads the length of the string encoded at off and checks
// that its bytes are all there.
func stringLen(b []byte, off int) (int, error) {
	if off+4 > len(b) {
		return 0, errors.New("catalog: truncated string length")
	}
	l := int(binary.LittleEndian.Uint32(b[off : off+4]))
	if off+4+l > len(b) {
		return 0, errors.New("catalog: truncated string value")
	}
	return l, nil
}

func errTruncated(t ColType) error {
	if t == Int64 {
		return errors.New("catalog: truncated int64 value")
	}
	return errors.New("catalog: truncated float64 value")
}

// Insert stores a row and returns its record id: in the last page while
// it has room, else in space a deleted row left behind (which reuses
// that row's record id), else in a new page.
func (t *Table) Insert(row Row) (storage.RecordID, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	rec, err := encodeRow(&t.Schema, row)
	if err != nil {
		return storage.RecordID{}, err
	}
	tryPage := func(id storage.PageID) (storage.RecordID, error) {
		p, err := t.pool.Fetch(id)
		if err != nil {
			return storage.RecordID{}, err
		}
		slot, ierr := p.Insert(rec)
		if uerr := t.pool.Unpin(id, ierr == nil); uerr != nil {
			return storage.RecordID{}, uerr
		}
		if ierr != nil {
			return storage.RecordID{}, ierr
		}
		t.rows++
		return storage.RecordID{Page: id, Slot: slot}, nil
	}
	if n := len(t.pages); n > 0 {
		if rid, err := tryPage(t.pages[n-1]); !errors.Is(err, storage.ErrPageFull) {
			return rid, err
		}
	}
	for len(t.holes) > 0 {
		rid, err := tryPage(t.holes[0])
		if !errors.Is(err, storage.ErrPageFull) {
			return rid, err
		}
		t.holes = t.holes[1:] // nothing here fits; a later delete may change that
	}
	p, err := t.pool.NewPage()
	if err != nil {
		return storage.RecordID{}, err
	}
	t.pages = append(t.pages, p.ID)
	if err := t.pool.Unpin(p.ID, true); err != nil {
		return storage.RecordID{}, err
	}
	return tryPage(p.ID)
}

// Get fetches the row at rid.
func (t *Table) Get(rid storage.RecordID) (Row, error) {
	vs, cols := t.vectors()
	n, err := t.DecodeRecords([]storage.RecordID{rid}, cols, nil)
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
// a statement read there. Record ids are reused, so between reading a
// row and deleting it another statement may have deleted it and a third
// row taken its place; then, as when the slot is simply empty, the
// error is storage.ErrRecordDeleted and nothing is touched.
func (t *Table) DeleteIf(rid storage.RecordID, want Row) error {
	rec, err := encodeRow(&t.Schema, want)
	if err != nil {
		return err
	}
	return t.deleteIf(rid, rec)
}

func (t *Table) deleteIf(rid storage.RecordID, want []byte) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	p, err := t.pool.Fetch(rid.Page)
	if err != nil {
		return err
	}
	var derr error
	if want != nil {
		var have []byte
		if have, derr = p.GetRef(rid.Slot); derr == nil && !bytes.Equal(have, want) {
			derr = storage.ErrRecordDeleted
		}
	}
	if derr == nil {
		derr = p.Delete(rid.Slot)
	}
	if uerr := t.pool.Unpin(rid.Page, derr == nil); uerr != nil {
		return uerr
	}
	if derr == nil {
		t.rows--
		if i, found := slices.BinarySearch(t.holes, rid.Page); !found {
			t.holes = slices.Insert(t.holes, i, rid.Page)
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

// Scan streams every live row (with its record id) to fn; returning false
// stops the scan.
func (t *Table) Scan(fn func(rid storage.RecordID, row Row) bool) error {
	return t.ScanPages(t.PageIDs(), fn)
}

// ScanPages streams the live rows of just the given pages to fn in page
// order; returning false stops the scan. Each page is decoded under the
// table's read lock and its rows handed to fn after it is released, so
// fn may write to the table. It is safe to call concurrently over any
// page ranges.
func (t *Table) ScanPages(pages []storage.PageID, fn func(rid storage.RecordID, row Row) bool) error {
	vs, cols := t.vectors()
	var rids []storage.RecordID
	for _, id := range pages {
		for i := range vs {
			vs[i].Reset()
		}
		rids = rids[:0]
		if _, err := t.DecodePage(id, cols, &rids); err != nil {
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

// onPage runs fn on page id, pinned, under the table's read lock: no
// insert or delete changes the page while fn reads it.
func (t *Table) onPage(id storage.PageID, fn func(p *storage.Page) error) error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	p, err := t.pool.Fetch(id)
	if err != nil {
		return err
	}
	ferr := fn(p)
	if err := t.pool.Unpin(id, false); err != nil && ferr == nil {
		ferr = err
	}
	return ferr
}

// AllRows materializes every live row; convenient for small tables.
func (t *Table) AllRows() ([]Row, error) {
	var rows []Row
	err := t.Scan(func(_ storage.RecordID, r Row) bool {
		rows = append(rows, r)
		return true
	})
	return rows, err
}
