package aisql

import (
	"fmt"
	"sync"

	"aidb/internal/catalog"
	"aidb/internal/index"
	"aidb/internal/plan"
	"aidb/internal/storage"
)

// Secondary-index support for the engine: CREATE INDEX builds a B+tree
// over an Int64 column; the planner rewrites eligible filters into index
// range scans; DML keeps indexes synchronized.
//
// Duplicate column values are handled by keying the B+tree on
// (value << 20 | rowSeq), a standard composite-key trick; the fetch path
// masks the sequence back off.

const (
	dupBits = 20
	seqMask = 1<<dupBits - 1
)

type secondaryIndex struct {
	mu     sync.RWMutex
	table  string
	column int
	tree   *index.BTree
	next   uint64
}

func packRID(rid storage.RecordID) uint64 { return uint64(rid.Page)<<16 | uint64(rid.Slot) }

func (si *secondaryIndex) insert(value int64, rid storage.RecordID) {
	si.mu.Lock()
	defer si.mu.Unlock()
	key := value<<dupBits | int64(si.next&seqMask)
	// Once next has wrapped, its low bits may name a slot a live entry of
	// the same value still holds: take the next free one in the value's
	// band. (A band with all 2^20 slots live has none; the last probe is
	// then overwritten, as every colliding insert was before.)
	if si.next > seqMask {
		for probes := 0; probes < seqMask; probes++ {
			if _, err := si.tree.Get(key); err != nil {
				break
			}
			key = value<<dupBits | (key+1)&seqMask
		}
	}
	si.next++
	si.tree.Put(key, packRID(rid))
}

func (si *secondaryIndex) remove(value int64, rid storage.RecordID) {
	si.mu.Lock()
	defer si.mu.Unlock()
	packed := packRID(rid)
	// Scan the duplicate band for this value and delete the matching entry.
	var delKey int64
	found := false
	si.tree.Range(value<<dupBits, value<<dupBits|seqMask, func(k int64, v uint64) bool {
		if v == packed {
			delKey, found = k, true
			return false
		}
		return true
	})
	if found {
		si.tree.Delete(delKey)
	}
}

// maxIndexable bounds indexable values so the composite (value, seq) key
// cannot overflow int64.
const maxIndexable = int64(1) << 42

// fetch appends the record ids of rows with lo <= column value <= hi, in
// value order; the executor decodes them a page at a time.
func (si *secondaryIndex) fetch() plan.IndexFetch {
	return func(lo, hi int64, dst []storage.RecordID) ([]storage.RecordID, error) {
		lo, hi = max(lo, -maxIndexable), min(hi, maxIndexable)
		if lo > hi {
			return dst, nil
		}
		si.mu.RLock()
		defer si.mu.RUnlock()
		si.tree.Range(lo<<dupBits, hi<<dupBits|seqMask, func(k int64, v uint64) bool {
			dst = append(dst, storage.RecordID{Page: storage.PageID(v >> 16), Slot: int(v & 0xFFFF)})
			return true
		})
		return dst, nil
	}
}

// createIndex builds a secondary index over an existing table column.
func (e *Engine) createIndex(name, table, column string) error {
	t, err := e.Cat.Table(table)
	if err != nil {
		return err
	}
	col := t.Schema.ColIndex(column)
	if col < 0 {
		return fmt.Errorf("aisql: column %q not found in %q", column, table)
	}
	if t.Schema.Columns[col].Type != catalog.Int64 {
		return fmt.Errorf("aisql: only INT columns can be indexed, %q is %v", column, t.Schema.Columns[col].Type)
	}
	e.mu.Lock()
	if e.indexes == nil {
		e.indexes = map[string]*secondaryIndex{}
	}
	key := table + "." + column
	if _, ok := e.indexes[key]; ok {
		e.mu.Unlock()
		return fmt.Errorf("aisql: index on %s already exists", key)
	}
	si := &secondaryIndex{table: table, column: col, tree: index.NewBTree(64)}
	e.indexes[key] = si
	e.mu.Unlock()
	// Backfill from the heap.
	return t.Scan(func(rid storage.RecordID, row catalog.Row) bool {
		si.insert(row[col].(int64), rid)
		return true
	})
}

// indexFor returns the secondary index for (table, column position).
func (e *Engine) indexFor(table string, col int) *secondaryIndex {
	e.mu.RLock()
	defer e.mu.RUnlock()
	for _, si := range e.indexes {
		if si.table == table && si.column == col {
			return si
		}
	}
	return nil
}

// indexLookup adapts the engine's indexes to the planner's interface.
func (e *Engine) indexLookup() plan.IndexLookup {
	return func(table string, col int) plan.IndexFetch {
		if si := e.indexFor(table, col); si != nil {
			return si.fetch()
		}
		return nil
	}
}

// syncIndexesInsert records a freshly inserted row in all indexes on the
// table.
func (e *Engine) syncIndexesInsert(table string, rid storage.RecordID, row catalog.Row) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	for _, si := range e.indexes {
		if si.table == table {
			si.insert(row[si.column].(int64), rid)
		}
	}
}

// syncIndexesDelete removes a deleted row from all indexes on the table.
func (e *Engine) syncIndexesDelete(table string, rid storage.RecordID, row catalog.Row) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	for _, si := range e.indexes {
		if si.table == table {
			si.remove(row[si.column].(int64), rid)
		}
	}
}
