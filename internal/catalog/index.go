package catalog

import (
	"fmt"

	"aidb/internal/index"
	"aidb/internal/storage"
)

// tableIndex is a secondary index on INT column col: a B+tree of
// (value, packed record id) pairs, one per live row.
type tableIndex struct {
	col  int
	tree *index.BTree
}

func packRID(rid storage.RecordID) uint64 { return uint64(rid.Page)<<16 | uint64(rid.Slot) }

func unpackRID(v uint64) storage.RecordID {
	return storage.RecordID{Page: storage.PageID(v >> 16), Slot: int(v & 0xFFFF)}
}

// indexOn returns the tree of the index on column col, or nil; the caller
// holds the table's lock.
func (t *Table) indexOn(col int) *index.BTree {
	for _, x := range t.indexes {
		if x.col == col {
			return x.tree
		}
	}
	return nil
}

// CreateIndex builds a secondary index on INT column col from the
// column's values, decoded a page at a time, and publishes it. It holds
// the table's write lock throughout, so the index has each live row
// exactly once when the next statement sees it; from then on inserts
// and deletes change it with the heap. A column takes one index.
func (t *Table) CreateIndex(col int) error {
	if col < 0 || col >= len(t.Schema.Columns) {
		return fmt.Errorf("catalog: %s has no column %d", t.Name, col)
	}
	c := t.Schema.Columns[col]
	if c.Type != Int64 {
		return fmt.Errorf("catalog: only INT columns can be indexed, %s.%s is %v", t.Name, c.Name, c.Type)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.indexOn(col) != nil {
		return fmt.Errorf("catalog: index on %s.%s already exists", t.Name, c.Name)
	}
	tree := index.NewBTree(index.DefaultOrder)
	var keys Vector
	var rids []storage.RecordID
	cols := make([]*Vector, len(t.Schema.Columns))
	cols[col] = &keys
	for p := range t.pages {
		keys.Reset()
		rids = rids[:0]
		if _, _, err := t.decodePages(t.pages[p:p+1], cols, &rids, 1); err != nil {
			return err
		}
		for i, rid := range rids {
			tree.Put(keys.I[i], packRID(rid))
		}
	}
	t.indexes = append(t.indexes, tableIndex{col: col, tree: tree})
	return nil
}

// Indexed reports whether column col has an index.
func (t *Table) Indexed(col int) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.indexOn(col) != nil
}

// IndexRange appends to dst the record ids of the rows whose column col
// holds a value in [lo, hi], in (value, record id) order, read from the
// column's index under the table's read lock. It fails when col has no
// index.
func (t *Table) IndexRange(col int, lo, hi int64, dst []storage.RecordID) ([]storage.RecordID, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	tree := t.indexOn(col)
	if tree == nil {
		return dst, fmt.Errorf("catalog: %s has no index on column %d", t.Name, col)
	}
	tree.Range(lo, hi, func(_ int64, v uint64) bool {
		dst = append(dst, unpackRID(v))
		return true
	})
	return dst, nil
}
