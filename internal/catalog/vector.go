package catalog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"unsafe"

	"aidb/internal/storage"
)

// Vector holds one column of decoded rows, typed by the column: an Int64
// column's cells are in I, a Float64 column's in F, a String column's in
// S. Decoders append to it; Reset empties it for reuse.
type Vector struct {
	I []int64
	F []float64
	S []string
	// text backs the strings in S and only ever grows at its end: bytes
	// once written are never overwritten, and a full buffer is replaced,
	// not reused. A string taken from S therefore stays valid however
	// long it is kept, after the vector is reset and refilled, and a
	// chunk's strings cost one allocation per buffer, not one per cell.
	text []byte
}

// Reset empties v, keeping its capacity.
func (v *Vector) Reset() { v.I, v.F, v.S = v.I[:0], v.F[:0], v.S[:0] }

// String buffers start small, so a point read's vector stays small, and
// double up to a few pages' worth.
const (
	minText = 64
	maxText = 4 * storage.PageSize
)

// appendString copies b into the text buffer and appends it to S.
func (v *Vector) appendString(b []byte) {
	if len(b) == 0 {
		v.S = append(v.S, "")
		return
	}
	if cap(v.text)-len(v.text) < len(b) {
		v.text = make([]byte, 0, max(len(b), min(2*cap(v.text), maxText), minText))
	}
	off := len(v.text)
	v.text = append(v.text, b...)
	v.S = append(v.S, unsafe.String(&v.text[off], len(b)))
}

// DecodePage appends the live rows of page id, in slot order, to cols —
// one entry per table column; a nil entry is a column the caller does
// not read, which is stepped over — and, when rids is non-nil, each
// row's record id to *rids. It reads the page through the buffer pool's
// View, under the table's read lock: a resident page is pinned once, any
// other is read past the pool, so a scan evicts nothing. It returns how
// many rows it appended; on error the vectors may hold part of a row and
// must be discarded.
func (t *Table) DecodePage(id storage.PageID, cols []*Vector, rids *[]storage.RecordID) (int, error) {
	if err := t.checkCols(cols); err != nil {
		return 0, err
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := 0
	err := t.pool.View(id, func(p *storage.Page) error {
		t.grow(cols, rids, p.Slots())
		for s := 0; s < p.Slots(); s++ {
			ok, err := t.decodeSlot(p, s, cols, rids)
			if err != nil {
				return err
			}
			if ok {
				n++
			}
		}
		return nil
	})
	return n, err
}

// DecodeRecords is DecodePage for the records ids names, in that order:
// each run of consecutive ids on one page shares one pin, and a record
// deleted since its id was read is skipped.
func (t *Table) DecodeRecords(ids []storage.RecordID, cols []*Vector, rids *[]storage.RecordID) (int, error) {
	if err := t.checkCols(cols); err != nil {
		return 0, err
	}
	t.grow(cols, rids, len(ids))
	n := 0
	for i := 0; i < len(ids); {
		page, j := ids[i].Page, i+1
		for j < len(ids) && ids[j].Page == page {
			j++
		}
		err := t.onPage(page, func(p *storage.Page) error {
			for _, rid := range ids[i:j] {
				ok, err := t.decodeSlot(p, rid.Slot, cols, rids)
				if err != nil {
					return err
				}
				if ok {
					n++
				}
			}
			return nil
		})
		if err != nil {
			return n, err
		}
		i = j
	}
	return n, nil
}

func (t *Table) checkCols(cols []*Vector) error {
	if len(cols) != len(t.Schema.Columns) {
		return fmt.Errorf("catalog: scan of %s asks for %d columns, table has %d", t.Name, len(cols), len(t.Schema.Columns))
	}
	return nil
}

// grow makes room for n more rows in every vector decoded into.
func (t *Table) grow(cols []*Vector, rids *[]storage.RecordID, n int) {
	for i, v := range cols {
		switch {
		case v == nil:
		case t.Schema.Columns[i].Type == Int64:
			v.I = slices.Grow(v.I, n)
		case t.Schema.Columns[i].Type == Float64:
			v.F = slices.Grow(v.F, n)
		default:
			v.S = slices.Grow(v.S, n)
		}
	}
	if rids != nil {
		*rids = slices.Grow(*rids, n)
	}
}

// decodeSlot appends the row in slot s of pinned page p; ok is false for
// a deleted slot.
func (t *Table) decodeSlot(p *storage.Page, s int, cols []*Vector, rids *[]storage.RecordID) (ok bool, err error) {
	b, err := p.GetRef(s)
	if err != nil {
		if errors.Is(err, storage.ErrRecordDeleted) {
			err = nil
		}
		return false, err
	}
	if err := decodeCells(&t.Schema, b, cols); err != nil {
		return false, err
	}
	if rids != nil {
		*rids = append(*rids, storage.RecordID{Page: p.ID, Slot: s})
	}
	return true, nil
}

// decodeCells appends record b's cells to cols (nil entries are stepped
// over). A record too short for its schema is an error.
func decodeCells(schema *Schema, b []byte, cols []*Vector) error {
	off := 0
	for i, col := range schema.Columns {
		v := cols[i]
		switch col.Type {
		case Int64, Float64:
			if off+8 > len(b) {
				return errTruncated(col.Type)
			}
			if v != nil {
				x := binary.LittleEndian.Uint64(b[off : off+8])
				if col.Type == Int64 {
					v.I = append(v.I, int64(x))
				} else {
					v.F = append(v.F, math.Float64frombits(x))
				}
			}
			off += 8
		case String:
			l, err := stringLen(b, off)
			if err != nil {
				return err
			}
			if v != nil {
				v.appendString(b[off+4 : off+4+l])
			}
			off += 4 + l
		}
	}
	return nil
}
