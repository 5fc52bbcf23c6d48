// Package storage implements aidb's physical layer: fixed-size slotted
// pages, pluggable disk managers (in-memory and file-backed), a pinning
// LRU buffer pool, and a minimal write-ahead log. Higher layers (catalog
// heap tables, the LSM KV store) build on these primitives.
package storage

import (
	"container/list"
	"encoding/binary"
	"errors"
	"fmt"
)

// PageSize is the fixed size of every page in bytes.
const PageSize = 4096

// PageID identifies a page within a disk manager.
type PageID uint32

// InvalidPageID marks an unallocated page reference.
const InvalidPageID = PageID(0xFFFFFFFF)

// Slotted page layout:
//
//	[0:2)   numSlots
//	[2:4)   freeSpacePtr (offset where the next record payload ends)
//	[4:..)  slot directory: per slot, 2-byte offset + 2-byte length
//	        (the offset's top bit marks a deleted slot; its offset and
//	        length still describe the dead payload, so Insert can reuse it)
//	[...:PageSize) record payloads, growing downward from the end
const (
	headerSize   = 4
	slotSize     = 4
	deletedBit   = 0x8000
	maxRecordLen = PageSize - headerSize - slotSize
)

// ErrPageFull is returned by Insert when the record does not fit.
var ErrPageFull = errors.New("storage: page full")

// ErrRecordDeleted is returned by Get for a deleted slot.
var ErrRecordDeleted = errors.New("storage: record deleted")

// Page is one 4KB slotted page. The zero page must be initialized with
// InitPage before use.
type Page struct {
	ID   PageID
	Data [PageSize]byte

	pinCount int
	dirty    bool
	lru      *list.Element // the page's place in its pool's LRU list
}

// InitPage resets the page to an empty slotted layout.
func (p *Page) InitPage() {
	for i := range p.Data {
		p.Data[i] = 0
	}
	p.setNumSlots(0)
	p.setFreePtr(PageSize)
}

func (p *Page) numSlots() int { return int(binary.LittleEndian.Uint16(p.Data[0:2])) }
func (p *Page) setNumSlots(n int) {
	binary.LittleEndian.PutUint16(p.Data[0:2], uint16(n))
}
func (p *Page) freePtr() int { return int(binary.LittleEndian.Uint16(p.Data[2:4])) }
func (p *Page) setFreePtr(v int) {
	binary.LittleEndian.PutUint16(p.Data[2:4], uint16(v%65536))
}

// slot decodes directory entry i; dead reports a deleted slot, whose
// off and length are those of the record it held.
func (p *Page) slot(i int) (off, length int, dead bool) {
	base := headerSize + i*slotSize
	off = int(binary.LittleEndian.Uint16(p.Data[base : base+2]))
	return off &^ deletedBit, int(binary.LittleEndian.Uint16(p.Data[base+2 : base+4])), off&deletedBit != 0
}

func (p *Page) setSlot(i, off, length int) {
	base := headerSize + i*slotSize
	binary.LittleEndian.PutUint16(p.Data[base:base+2], uint16(off))
	binary.LittleEndian.PutUint16(p.Data[base+2:base+4], uint16(length))
}

// freeSpace reports the bytes available for one more record plus its slot.
func (p *Page) freeSpace() int {
	fp := p.freePtr()
	if fp == 0 {
		fp = PageSize // stored mod 65536; PageSize < 65536 so only empty pages hit this
	}
	used := headerSize + p.numSlots()*slotSize
	return fp - used
}

// NumRecords counts live (non-deleted) records.
func (p *Page) NumRecords() int {
	n := 0
	for i := 0; i < p.numSlots(); i++ {
		if _, _, dead := p.slot(i); !dead {
			n++
		}
	}
	return n
}

// Insert stores record and returns its slot index. A page with room
// appends a new slot; a page without takes over the first deleted slot
// whose dead record was at least as long, so a table under delete and
// insert churn stops growing. Live records never move.
func (p *Page) Insert(record []byte) (int, error) {
	if len(record) > maxRecordLen {
		return 0, fmt.Errorf("storage: record of %d bytes exceeds page capacity", len(record))
	}
	if p.freeSpace() < len(record)+slotSize {
		for i := 0; i < p.numSlots(); i++ {
			if off, l, dead := p.slot(i); dead && l >= len(record) {
				copy(p.Data[off:off+len(record)], record)
				p.setSlot(i, off, len(record))
				p.dirty = true
				return i, nil
			}
		}
		return 0, ErrPageFull
	}
	fp := p.freePtr()
	if fp == 0 {
		fp = PageSize
	}
	off := fp - len(record)
	copy(p.Data[off:fp], record)
	slotIdx := p.numSlots()
	p.setSlot(slotIdx, off, len(record))
	p.setNumSlots(slotIdx + 1)
	p.setFreePtr(off)
	p.dirty = true
	return slotIdx, nil
}

// Get returns a copy of the record in slot i.
func (p *Page) Get(i int) ([]byte, error) {
	b, err := p.GetRef(i)
	if err != nil {
		return nil, err
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out, nil
}

// GetRef returns slot i's record bytes as a view into the page buffer,
// without copying. The view is valid only while the page stays pinned
// and unmodified; callers that retain the bytes past that must copy
// (or use Get). This is the scan fast path: decoders that parse and
// immediately box the values never need their own copy of the record.
func (p *Page) GetRef(i int) ([]byte, error) {
	if i < 0 || i >= p.numSlots() {
		return nil, fmt.Errorf("storage: slot %d out of range (page has %d)", i, p.numSlots())
	}
	off, l, dead := p.slot(i)
	if dead {
		return nil, ErrRecordDeleted
	}
	return p.Data[off : off+l], nil
}

// Delete tombstones slot i. Its space is reused only by an Insert of a
// record no longer than the one deleted, once the page is otherwise full.
func (p *Page) Delete(i int) error {
	if i < 0 || i >= p.numSlots() {
		return fmt.Errorf("storage: slot %d out of range", i)
	}
	off, l, dead := p.slot(i)
	if dead {
		return ErrRecordDeleted
	}
	p.setSlot(i, off|deletedBit, l)
	p.dirty = true
	return nil
}

// Slots returns the slot count including tombstones, for iteration.
func (p *Page) Slots() int { return p.numSlots() }

// RecordID addresses a record globally.
type RecordID struct {
	Page PageID
	Slot int
}

// String renders the record id.
func (r RecordID) String() string { return fmt.Sprintf("%d:%d", r.Page, r.Slot) }
