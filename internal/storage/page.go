// Package storage implements aidb's physical layer: fixed-size page
// frames, pluggable disk managers (in-memory and file-backed), a pinning
// LRU buffer pool, and a minimal write-ahead log. What a page's bytes
// mean is up to the layer above: catalog lays heap pages out by column.
package storage

import (
	"container/list"
	"errors"
	"fmt"
)

// PageSize is the fixed size of every page in bytes.
const PageSize = 4096

// PageID identifies a page within a disk manager.
type PageID uint32

// InvalidPageID marks an unallocated page reference.
const InvalidPageID = PageID(0xFFFFFFFF)

// ErrRecordDeleted is returned for a record id whose record is gone.
var ErrRecordDeleted = errors.New("storage: record deleted")

// Page is one buffer-pool frame: a page's id and its PageSize bytes.
// A new page is all zeros.
type Page struct {
	ID   PageID
	Data [PageSize]byte

	pinCount int
	dirty    bool
	lru      *list.Element // the page's place in its pool's LRU list
}

// RecordID addresses a record globally.
type RecordID struct {
	Page PageID
	Slot int
}

// String renders the record id.
func (r RecordID) String() string { return fmt.Sprintf("%d:%d", r.Page, r.Slot) }
